"""Command-line interface.

Subcommands mirror the library surface: ``canonical`` and ``report`` work
on state files, ``certificate`` builds the dual certificate, the
``adversarial`` families emit CSV rows, ``round-gap`` rounds the spectral
gap, ``protocol`` runs Monte-Carlo protocol experiments, and ``grouprep``
sweeps perturbed representations.

Conventions: output is byte-identical for identical inputs, flags, and
seed at the same BLAS thread count (sorted JSON keys, fixed float
formatting, no timestamps).  Across thread counts a threaded BLAS sums
in another order: the measured pairs kept their bytes at d = 64, and at
d = 128 the printed values move by up to 1e-11 relative (see the
README).  Exit code 0 on success, 2 on input validation failure
(machine-readable error JSON on stderr), 1 on internal numerical
failure.  With ``CI_STRICT=1`` every randomized subcommand requires an
explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING

from . import matcore, states, uhlmann
from .errors import (
    BadParamsError,
    ConsistencyError,
    IllConditionedError,
    NoConvergenceError,
    UhlmannError,
)

# adversarial, certificate, grouprep and protocol are imported by the handlers that use them, so a
# subcommand loads only its own modules
if TYPE_CHECKING:
    from . import grouprep, protocol

SCHEMA_VERSION = 1
# protocol's built-in instances (the reference pair, the eta family) are 2^n-dimensional
MAX_BUILTIN_N = 10
# Exit code 1; every other library, input or file error exits 2.
_NUMERICAL_FAILURES = (NoConvergenceError, ConsistencyError, IllConditionedError, FloatingPointError)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _write(matcore.json_line({**payload, "schema_version": SCHEMA_VERSION}), out_path)


def _emit_csv(header: list, rows: list, out_path: str | None) -> None:
    lines = [",".join(header)] + [",".join(map(matcore.format_value, row)) for row in rows]
    _write("\n".join(lines) + "\n", out_path)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(args) -> uhlmann.UhlmannInstance:
    c = states.read_state(args.c)
    d = states.read_state(args.d)
    return uhlmann.UhlmannInstance.from_states(c, d)


def _require_seed(args) -> int:
    """The seed of a randomized run (``main`` has checked a given one): 0 when omitted, except under
    ``CI_STRICT=1``."""
    if os.environ.get("CI_STRICT") == "1" and args.seed is None:
        raise BadParamsError("CI_STRICT=1 requires an explicit --seed on randomized subcommands")
    return 0 if args.seed is None else args.seed


def _check_tol(tol: float) -> float:
    if not 0.0 < tol <= 1e-3:
        raise BadParamsError("tol must lie in (0, 1e-3]")
    return tol


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_canonical(args) -> int:
    inst = _load_instance(args)
    _write(matcore.matrix_json_text(uhlmann.canonical_w(inst, rank_tol=args.tol)), args.out)
    return 0


def _probe_best(args, inst) -> float | None:
    """The primal probe's best residual, or None without ``--probe-trials``."""
    if not args.probe_trials:
        return None
    from . import certificate

    seed = _require_seed(args)
    return certificate.primal_probe(inst, args.epsilon, args.probe_trials, seed).best_residual


def _cmd_report(args) -> int:
    inst = _load_instance(args)
    empirical = _probe_best(args, inst)
    rep = uhlmann.rigidity_report(inst, args.epsilon, rank_tol=args.tol, empirical_primal=empirical)
    _emit_json(rep.to_dict(), args.out)
    return 0


def _cmd_certificate(args) -> int:
    from . import certificate

    inst = _load_instance(args)
    eta = uhlmann.spectral_gap_eta(inst, rank_tol=args.tol)
    kappa = uhlmann.obliqueness_kappa(inst, rank_tol=args.tol)
    alpha = args.alpha if args.alpha is not None else -kappa / eta
    cert = certificate.build_certificate(inst, args.epsilon, alpha, rank_tol=args.tol)
    payload = cert.to_dict()
    payload["dual_bound"] = certificate.dual_bound(inst, args.epsilon, rank_tol=args.tol)
    payload["primal_best"] = _probe_best(args, inst)
    _emit_json(payload, args.out)
    return 0


_ADV_HEADER = ["family", "d", "fidelity", "eta", "kappa", "epsilon", "residual", "bound", "tight"]


def _cmd_adversarial(args) -> int:
    from . import adversarial, certificate

    nan = float("nan")
    if args.family == "eta":
        fam = adversarial.build_eta_family(args.d, args.eta, args.tau)
        row = ["eta", fam.d, fam.instance.fidelity(), fam.eta, 1.0, fam.epsilon,
               fam.residual, fam.bound, abs(fam.residual - fam.bound) <= 1e-6]
    elif args.family in ("kappa", "boost"):
        # kappa_rho's range without its ends, where rho is singular; kappa_rho reports a d below 2
        if args.d >= 2 and not 0.0 < args.lam < 1.0 / (args.d - 1):
            raise BadParamsError(f"--lam must lie in (0, 1/(d-1)), got {args.lam}")
        rho = adversarial.kappa_rho(args.d, args.lam)
        vec = adversarial.kappa_vec(args.d, args.weight)
        fam = adversarial.build_kappa_family(args.d, rho, vec, args.epsilon)
        if args.family == "kappa":
            bound = certificate.dual_bound(fam.instance, fam.epsilon)
            row = ["kappa", fam.d, fam.fidelity, fam.eta, fam.kappa, fam.epsilon,
                   fam.residual, bound, abs(fam.residual - bound) <= 1e-6]
        else:
            boost = adversarial.build_boosted_kappa(fam)
            row = ["boost", args.d + 1, boost.fidelity, boost.eta, boost.kappa, fam.epsilon,
                   nan, nan, False]
    else:  # qutrit
        sens = adversarial.qutrit_sensitivity(args.epsilon)
        row = ["qutrit", 3, sens.perturbed.fidelity(), nan, nan, args.epsilon,
               sens.w_distance, sens.state_distance, False]
    _emit_csv(_ADV_HEADER, [row], args.out)
    return 0


def _cmd_round_gap(args) -> int:
    from . import adversarial

    inst = _load_instance(args)
    rounded = adversarial.round_spectral_gap(inst, args.eta_target, args.mix_delta)
    if args.out_c:
        states.write_state(args.out_c, rounded.rounded.c)
    if args.out_d:
        states.write_state(args.out_d, rounded.rounded.d)
    _emit_json(
        {
            "eta_target": rounded.eta_target,
            "mix_delta": rounded.mix_delta,
            "beta": rounded.beta,
            "gap": rounded.gap,
            "overlap_c": rounded.overlap_c,
            "overlap_d": rounded.overlap_d,
        },
        args.out,
    )
    return 0


def _cmd_protocol(args) -> int:
    from . import protocol

    seed = _require_seed(args)
    if args.trials < 1:
        raise BadParamsError(f"--trials must be >= 1, got {args.trials}")
    if bool(args.c) != bool(args.d):
        raise BadParamsError("--c and --d must be given together")
    fam = None
    if args.c:
        inst = _load_instance(args)
    elif args.n > MAX_BUILTIN_N:
        raise BadParamsError(f"--n must be <= {MAX_BUILTIN_N} without --c/--d, got {args.n}")
    elif args.prover == "derangement":
        from . import adversarial

        fam = adversarial.build_eta_family(2**args.n, args.eta, args.tau)
        inst = fam.instance
    else:
        inst = protocol.completeness_reference_instance(args.n)
    params = protocol.ProtocolParams.for_instance(inst, args.n, args.r, gamma=args.gamma)
    prover = _build_prover(args.prover, inst, fam, seed)
    inv, outs = protocol._trial_loop(inst, params, prover, (seed,), args.trials)
    rows = [[t, o.accepted, o.j, o.i_star, o.output_state_fidelity] for t, o in enumerate(outs)]
    if args.out:
        _emit_csv(["trial", "accepted", "j", "i_star", "output_state_fidelity"], rows, args.out)
    _emit_json(
        {
            "prover": prover.label,
            "n": args.n,
            "r": args.r,
            "m": params.m,
            "gamma": params.gamma,
            "threshold": params.threshold,
            "accept_probability": inv.accept_probability,
            "trials": args.trials,
            "acceptance_rate": sum(row[1] for row in rows) / args.trials,
            "seed": seed,
        },
        None,
    )
    return 0


def _build_prover(spec_str: str, inst, fam, seed: int) -> protocol.ProverStrategy:
    from . import protocol

    if spec_str == "honest":
        return protocol.honest_prover(inst)
    if spec_str == "derangement":
        if fam is None:
            raise BadParamsError("derangement prover needs the built-in eta family instance")
        return protocol.derangement_prover(fam.adversary_r)
    if spec_str == "random":
        return protocol.random_prover(inst.dim_b, seed)
    if spec_str.startswith("epsilon:"):
        eps = float(spec_str.split(":", 1)[1])
        return protocol.epsilon_prover(inst, eps, seed)
    raise BadParamsError(f"unknown prover '{spec_str}'")


def _cmd_grouprep(args) -> int:
    from . import grouprep

    seed = _require_seed(args)
    if args.count < 1:
        raise BadParamsError(f"--count must be >= 1, got {args.count}")
    group = _build_group(args.group)
    dim = (3 if group.order == 6 else group.order) if args.dim is None else args.dim
    if dim < 1:  # before _sweep sizes its passes by (|G| dim)^2
        raise BadParamsError(f"dim must be >= 1, got {dim}")
    lines = []
    for k, (rep, row) in enumerate(grouprep._sweep(group, dim, args.scale, seed, args.count)):
        res = grouprep.stability_check(rep, row)
        lines.append(matcore.json_line({"index": k, **res.to_dict()}))
    _write("".join(lines), args.out)
    return 0


def _build_group(name: str) -> grouprep.FiniteGroup:
    from . import grouprep

    if name.startswith("z") and name[1:].isdigit():
        return grouprep.FiniteGroup.cyclic(int(name[1:]))
    if name == "s3":
        return grouprep.FiniteGroup.symmetric3()
    if name.endswith(".json"):
        return grouprep.FiniteGroup.from_file(name)
    raise BadParamsError(f"unknown group '{name}' (use z<n>, s3, or a table file)")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every ``main`` call: never mutate it.

    Argparse looks up ``sys.stdout``/``sys.stderr`` only when it prints.
    """
    p = argparse.ArgumentParser(prog="uhlmann", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_states(sp, required=True):
        sp.add_argument("--c", required=required, help="state file for |C>")
        sp.add_argument("--d", required=required, help="state file for |D>")

    def add_common(sp, seed=False, tol=False):
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if tol:  # the relative rank tolerance; None keeps the library default
            sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", default=None, help="output path (stdout when omitted)")

    sp = sub.add_parser("canonical", help="write the canonical transformation W")
    add_states(sp)
    add_common(sp, tol=True)
    sp.set_defaults(func=_cmd_canonical)

    sp = sub.add_parser("report", help="rigidity report for a state pair")
    add_states(sp)
    add_common(sp, seed=True, tol=True)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--probe-trials", type=int, default=0)
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("certificate", help="dual certificate and bound")
    add_states(sp)
    add_common(sp, seed=True, tol=True)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--alpha", type=float, default=None, help="default: -kappa/eta")
    sp.add_argument("--probe-trials", type=int, default=0)
    sp.set_defaults(func=_cmd_certificate)

    sp = sub.add_parser(
        "adversarial",
        help="parameter-dependence families (CSV)",
        description="Emits one CSV row per construction. For the qutrit "
        "family the residual/bound columns carry the transformation gap "
        "||W - W~|| and the state distance || |C> - |C~> ||; the boost "
        "family has no adversary, so those columns are nan.",
    )
    sp.add_argument("family", choices=["eta", "kappa", "boost", "qutrit"])
    add_common(sp)
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--eta", type=float, default=0.4)
    sp.add_argument("--tau", type=float, default=0.5)
    sp.add_argument("--epsilon", type=float, default=0.05)
    sp.add_argument("--lam", type=float, default=0.02, help="small eigenvalue of rho")
    sp.add_argument("--weight", type=float, default=0.03, help="sigma weight on the heavy eigenvector")
    sp.set_defaults(func=_cmd_adversarial)

    sp = sub.add_parser("round-gap", help="round the spectral gap of a pair")
    add_states(sp)
    add_common(sp)
    sp.add_argument("--eta-target", type=float, required=True)
    sp.add_argument("--mix-delta", type=float, default=1e-6)
    sp.add_argument("--out-c", default=None)
    sp.add_argument("--out-d", default=None)
    sp.set_defaults(func=_cmd_round_gap)

    sp = sub.add_parser("protocol", help="Monte-Carlo protocol experiments")
    add_states(sp, required=False)
    add_common(sp, seed=True)
    sp.add_argument("--n", type=int, default=2,
                    help=f"2^n is B's dimension; at most {MAX_BUILTIN_N} without --c/--d")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--gamma", type=float, default=None, help="default: honest accept probability")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--prover", default="honest", help="honest|derangement|random|epsilon:<val>")
    sp.add_argument("--eta", type=float, default=0.4, help="eta family knob when no state files")
    sp.add_argument("--tau", type=float, default=0.5, help="tau family knob when no state files")
    sp.set_defaults(func=_cmd_protocol)

    sp = sub.add_parser("grouprep", help="stability sweep over perturbed representations")
    add_common(sp, seed=True)
    sp.add_argument("--group", default="z4", help="z<n>, s3, or a JSON table file")
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--scale", type=float, default=0.2)
    sp.add_argument("--count", type=int, default=5)
    sp.set_defaults(func=_cmd_grouprep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "tol", None) is not None:
            _check_tol(args.tol)
        if getattr(args, "seed", None) is not None and args.seed < 0:  # whether or not the run draws
            raise BadParamsError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "probe_trials", 0) < 0:  # 0 runs no probe
            raise BadParamsError(f"--probe-trials must be >= 0, got {args.probe_trials}")
        return args.func(args)
    except (*_NUMERICAL_FAILURES, UhlmannError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(matcore.json_line({"error": type(exc).__name__, "message": str(exc)}))
        return 1 if isinstance(exc, _NUMERICAL_FAILURES) else 2


if __name__ == "__main__":
    sys.exit(main())
