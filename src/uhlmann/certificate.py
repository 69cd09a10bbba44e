"""Closed-form dual certificate for the rigidity bound, plus a primal probe.

The rigidity bound is not obtained from a numerical SDP solver.  The dual
side has an explicit feasible point: with ``A = sqrt(sigma) sqrt(rho)``,
``P = W*W`` and any real ``alpha``, the blocks

    Y1 = sqrt(T* T),   Y2 = T (sqrt(T* T))^-1 T*,   T = (alpha A* + P rho W*) / 2

are dual-feasible with objective ``2 ||T||_1 + alpha (F - eps)``.  They are
the polar factors of T: one SVD ``T = U S V*`` gives ``Y1 = V S V*``,
``Y2 = U S U*`` and ``||T||_1 = sum S``.  At
``alpha = -kappa/eta`` the objective equals ``(kappa/eta) eps - Tr(P rho)``,
which by weak duality upper-bounds half the worst-case rigidity residual;
the primal side is probed empirically by a constrained unitary search.

All operator formulas live in the identity frame (conjugated reduced
matrices; see the uhlmann module docstring).
"""

from __future__ import annotations

import numpy as np

from . import matcore, uhlmann
from .errors import BadParamsError, FrameMismatchError
from .matcore import Record, dagger
from .uhlmann import UhlmannInstance

__all__ = [
    "DualCertificate",
    "PrimalProbe",
    "build_certificate",
    "dual_bound",
    "primal_probe",
    "psd_core_check",
]


class DualCertificate(Record):
    """Feasible dual point and its objective value."""

    alpha: float
    t: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    value: float
    feasible: bool
    feasibility_margin: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("alpha", "value", "feasible", "feasibility_margin")}


class PrimalProbe(Record):
    """Best residual found by the constrained unitary search."""

    best_residual: float
    best_overlap: float
    trials: int
    seed: int


def _feasible_point(core: uhlmann.SpectralCore, alpha: float) -> tuple:
    """``(alpha, T, Y1, Y2, ||T||_1, margin)``, all that depends on alpha alone.

    One SVD ``T = U S V*`` gives ``||T||_1 = sum S``, ``Y1 = V S V*`` and ``Y2 = U S U*``,
    cut at the default (noise) tolerance whatever ``rank_tol``: a value that ``||T||_1``
    counts and Y1, Y2 drop leaves the point infeasible.  Kept on the core for the last
    alpha: ``dual_bound`` after a certificate at the same alpha decomposes nothing.
    """
    point = core.certificate_point
    if point is not None and point[0] == alpha:
        return point
    t = 0.5 * (alpha * dagger(core.a) + core.p @ core.frame.rho @ dagger(core.w))
    f = matcore.svd(t)
    s = f.singulars.copy()
    s[f.cut():] = 0.0
    y1, y2, t_norm = (f.v * s) @ dagger(f.v), (f.u * s) @ dagger(f.u), float(f.singulars.sum())
    del f  # the factors need not outlive the PSD check's 2d x 2d block
    # Constraint block minus right-hand side reduces to [[Y1, T*], [T, Y2]];
    # the Schur and direct paths must agree on its PSD-ness.
    margin = matcore.schur_psd_margin(y1, dagger(t), y2, tol=1e-8)
    core.certificate_point = (alpha, t, y1, y2, t_norm, margin)
    return core.certificate_point


def build_certificate(
    inst: UhlmannInstance, epsilon: float, alpha: float, rank_tol: float | None = None
) -> DualCertificate:
    """Assemble the closed-form dual certificate at the given ``alpha``.

    Feasibility is verified two ways: the generalized Schur criterion on
    the constraint block minus its right-hand side, and the direct minimum
    eigenvalue of the same difference; both must agree.
    """
    uhlmann.check_epsilon(epsilon)
    core = inst.spectral_core(rank_tol)
    _, t, y1, y2, t_norm, margin = _feasible_point(core, alpha)
    value = 2.0 * t_norm + alpha * (core.fidelity - epsilon)
    return DualCertificate(alpha=float(alpha), t=t, y1=y1, y2=y2, value=float(value),
                           feasible=margin >= -1e-8, feasibility_margin=margin)


def psd_core_check(inst: UhlmannInstance, rank_tol: float | None = None) -> float:
    """Minimum eigenvalue of ``(kappa/eta) A*W - P rho P``.

    The main theorem rests on this operator being PSD.  Also verifies the
    two structural facts behind it: ``A*W`` is self-adjoint and equals
    ``rho^1/2 (rho^-1 # sigma) rho^1/2``.
    """
    core = inst.spectral_core(rank_tol)
    aw = dagger(core.a) @ core.w
    if matcore.op_norm_exceeds(aw - dagger(aw), 1e-8):
        raise FrameMismatchError("A*W is not self-adjoint within 1e-8")
    rr = core.sqrt_rho.conj()
    if matcore.op_norm_exceeds(aw - rr @ core.mean.conj() @ rr, 1e-8):
        raise FrameMismatchError("A*W does not match rho^1/2 (rho^-1 # sigma) rho^1/2")
    eta, kappa = core.eta, core.kappa
    m = (kappa / eta) * aw - core.p @ inst.frame.rho @ core.p
    return float(matcore.lapack("eigvalsh", matcore.hermitian_part(m)).min())


def dual_bound(inst: UhlmannInstance, epsilon: float, rank_tol: float | None = None) -> float:
    """The rigidity bound ``2 (value + Tr(P rho)) = (2 kappa / eta) eps``."""
    core = inst.spectral_core(rank_tol)
    eta, kappa = core.eta, core.kappa
    cert = build_certificate(inst, epsilon, alpha=-kappa / eta, rank_tol=rank_tol)
    return 2.0 * (cert.value + float(np.trace(core.p @ inst.frame.rho).real))  # floats: no overflow warning


def primal_probe(inst: UhlmannInstance, epsilon: float, trials: int, seed: int) -> PrimalProbe:
    """Probe the primal side: maximize the residual over feasible unitaries.

    Candidates are the bisection walks of ``uhlmann.near_optimal_unitary``, one per
    trial.  The draw block is the stream contract: block b of ``uhlmann._WALK_BLOCK`` walks
    draws a full block from its own generator ``default_rng((seed, b))`` (a short last
    block keeps its first walks, so walk i never depends on ``trials``).  The compute
    chunk is the memory bound: one pass of ``uhlmann._walk_blocks`` runs
    ``uhlmann._chunk_walks(inst)`` walks, whole blocks whose generators are made in block
    order as they are drawn, and scores them with one unitarity check
    (``rigidity_residual``'s, at 1e-8), one residual product and one reduction of the
    norms on their stack.  Chunking moves no bit of the result.  By weak duality every
    probed residual stays below the dual bound.  BadParamsError unless ``trials >= 1``.
    """
    if trials < 1:
        raise BadParamsError("trials must be >= 1")
    uhlmann.check_epsilon(epsilon)
    best_res, best_ov = 0.0, inst.fidelity()
    size, per_chunk = uhlmann._WALK_BLOCK, uhlmann._chunk_walks(inst) // uhlmann._WALK_BLOCK
    n_blocks = -(-trials // size)
    chunks = (((np.random.default_rng((seed, b)) for b in range(first, min(first + per_chunk, n_blocks))),
               size, min(per_chunk * size, trials - first * size))
              for first in range(0, n_blocks, per_chunk))
    for rs, overlaps in uhlmann._walk_blocks(inst, epsilon, chunks, None):
        res = uhlmann._rigidity_residuals(inst, rs)
        del rs
        i = int(np.argmax(res))  # the first of the largest, as a walk-by-walk scan keeps
        if res[i] > best_res:
            best_res, best_ov = res[i], overlaps[i]
    return PrimalProbe(best_residual=best_res, best_overlap=best_ov, trials=trials, seed=seed)
