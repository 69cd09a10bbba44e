"""Constructions probing how the rigidity bound depends on its parameters.

Four families live here:

* a two-qutrit pair showing the canonical transformation is not a smooth
  function of the states (an O(sqrt(eps)) state perturbation flips W by
  operator norm 2);
* a diagonal family with tunable spectral gap whose derangement adversary
  saturates the ``2 kappa eps / eta`` bound exactly, while the reversed
  task stays robust;
* a pure-target family with tunable obliqueness whose adversary certifies
  the ``kappa eps^2`` lower bound, plus the fidelity-boosted variant;
* a rounding construction that lifts the spectral gap of an arbitrary
  pair above a target while keeping both states close.
"""

from __future__ import annotations

import numpy as np

from . import certificate, matcore, states, uhlmann
from .errors import (
    BadParamsError,
    ConsistencyError,
    DegenerateProjectionError,
    EpsilonTooLargeError,
    NotInvertibleError,
)
from .matcore import Record, dagger
from .states import BipartitePureState, DensityMatrix
from .uhlmann import UhlmannInstance

__all__ = [
    "BoostedKappa",
    "EtaFamily",
    "KappaFamily",
    "QutritSensitivity",
    "RoundedPair",
    "build_boosted_kappa",
    "build_eta_family",
    "build_kappa_family",
    "eta_family_reverse_probe",
    "kappa_rho",
    "kappa_vec",
    "qutrit_sensitivity",
    "round_spectral_gap",
]


# ---------------------------------------------------------------------------
# Sensitivity of W to the input states
# ---------------------------------------------------------------------------


class QutritSensitivity(Record):
    """Two nearby pairs whose canonical transformations are far apart."""

    exact: UhlmannInstance      # (C, D) with W = identity
    perturbed: UhlmannInstance  # (C~, D) with W~ swapping |1> and |2>
    w_distance: float           # ||W - W~||_inf  (= 2)
    state_distance: float       # || |C> - |C~> ||  (= sqrt(2 eps))


def qutrit_sensitivity(epsilon: float) -> QutritSensitivity:
    """Build the two-qutrit pair with discontinuous canonical map.

    ``C = sqrt(1-eps)|00> + sqrt(eps/2)|11> + sqrt(eps/2)|22>`` and the
    perturbation swaps the B labels of the two small terms.  The measured
    state distance is reported rather than assumed; it comes out as
    ``sqrt(2 eps)``, not ``eps``.
    """
    if not 0.0 < epsilon < 1.0:
        raise BadParamsError("epsilon must lie in (0, 1)")
    big, small = np.sqrt(1 - epsilon), np.sqrt(epsilon / 2)
    mc = np.diag([big, small, small]).astype(complex)
    mct = np.array(
        [[big, 0, 0], [0, 0, small], [0, small, 0]], dtype=complex
    )
    c = BipartitePureState(mc)
    ct = BipartitePureState(mct)
    exact = UhlmannInstance.from_states(c, c)
    perturbed = UhlmannInstance.from_states(ct, c)
    # keep the genuinely-nonzero eps/2 singular values above the rank cut
    rank_tol = max(1e-14, min(matcore.RANK_TOL_SCALE * 3, epsilon / 10))
    w = uhlmann.canonical_w(exact, rank_tol=rank_tol)
    wt = uhlmann.canonical_w(perturbed, rank_tol=rank_tol)
    swap12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    if matcore.op_norm_exceeds(w - np.eye(3), 1e-10) or matcore.op_norm_exceeds(wt - swap12, 1e-10):
        raise ConsistencyError("canonical maps of the qutrit pair are not the identity and the 1-2 swap")
    return QutritSensitivity(
        exact=exact,
        perturbed=perturbed,
        w_distance=matcore.op_norm(w - wt),
        state_distance=float(np.linalg.norm(mc - mct)),
    )


# ---------------------------------------------------------------------------
# Spectral-gap family (diagonal, derangement adversary)
# ---------------------------------------------------------------------------


class EtaFamily(Record):
    """Diagonal pair with gap ``eta`` and a bound-saturating adversary.

    ``rho = 1/d`` and ``sigma`` is diagonal with weight ``2(1-delta)/d``
    on the first half of the basis and ``2 delta / d`` on the second,
    ``delta = eta^2/2``.  The adversary applies a cyclic derangement on a
    subset G of the light half (``|G| = max(2, ceil(tau d / 2))``) and
    costs deficit ``epsilon = tau_effective sqrt(delta/2)`` while moving
    the state by ``2|G|/d = tau_effective`` — exactly the rigidity bound.
    """

    d: int
    eta: float
    delta: float
    tau: float
    tau_effective: float
    group_size: int
    epsilon: float
    residual: float
    bound: float
    instance: UhlmannInstance
    adversary_r: np.ndarray


def build_eta_family(d: int, eta: float, tau: float) -> EtaFamily:
    if d < 4 or d % 2 != 0:
        raise BadParamsError("d must be even and >= 4")
    if not (0.0 < eta < 1.0 and 0.0 < tau < 1.0):
        raise BadParamsError("eta and tau must lie in (0, 1)")
    delta = eta**2 / 2
    half = d // 2
    sigma_diag = np.array([2 * (1 - delta) / d] * half + [2 * delta / d] * half)
    mc = np.eye(d, dtype=complex) / np.sqrt(d)
    md = np.diag(np.sqrt(sigma_diag)).astype(complex)
    inst = UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))

    size = max(2, int(np.ceil(tau * half)))
    group = list(range(half, half + size))
    r = np.eye(d, dtype=complex)
    for j, i in enumerate(group):
        r[:, i] = 0.0
        r[group[(j + 1) % size], i] = 1.0  # cyclic shift: no fixed points

    tau_eff = size / half
    epsilon = tau_eff * np.sqrt(delta / 2)
    f = inst.fidelity()
    ov = states.overlap(inst.d, r, inst.c).real
    if abs(ov - (f - epsilon)) > 1e-9:
        raise BadParamsError(f"adversary overlap {ov} != F - eps = {f - epsilon}")

    residual = uhlmann.rigidity_residual(inst, r)
    eta_measured = uhlmann.spectral_gap_eta(inst)
    bound = certificate.dual_bound(inst, epsilon)
    if f < 0.5 - 1e-12:
        raise BadParamsError(f"family fidelity {f} fell below 1/2")
    if abs(eta_measured - eta) > 1e-9:
        raise BadParamsError(f"measured gap {eta_measured} != requested eta {eta}")
    if residual < 2 * epsilon / eta - 1e-9:
        raise BadParamsError("adversary residual fell below 2 eps / eta")
    return EtaFamily(
        d=d,
        eta=eta,
        delta=delta,
        tau=tau,
        tau_effective=tau_eff,
        group_size=size,
        epsilon=float(epsilon),
        residual=residual,
        bound=bound,
        instance=inst,
        adversary_r=r,
    )


def eta_family_reverse_probe(fam: EtaFamily, count: int = 8, seed: int = 0) -> float:
    """Max residual of near-optimal unitaries for the reversed task.

    The reversed pair (D to C) has gap ``1/sqrt(2(1-delta)) >= 1/sqrt(2)``,
    so every probed residual stays below ``2 sqrt(2) eps``.
    """
    rev = uhlmann.flip(fam.instance)
    return certificate.primal_probe(rev, fam.epsilon, count, seed).best_residual


# ---------------------------------------------------------------------------
# Obliqueness family (pure target state)
# ---------------------------------------------------------------------------


class KappaFamily(Record):
    """Pair with pure target whose adversary certifies ``kappa eps^2``.

    ``C = (1 (x) sqrt(rho))|Omega>`` and ``D = |conj(s)> (x) |s>`` give
    ``kappa = <s|rho^2|s> / <s|rho|s>^2`` and gap ``1/sqrt(<s|rho|s>)``.
    The adversary maps a slightly rotated copy of ``v = rho^1/2|s>/|.|``
    onto ``|s>``, completed to a unitary.
    """

    d: int
    rho: DensityMatrix
    sigma_vec: np.ndarray
    epsilon: float
    kappa: float
    eta: float
    fidelity: float
    residual: float
    instance: UhlmannInstance
    adversary_r: np.ndarray


def _unit_perp(v: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to ``v`` (Gram-Schmidt on e_i)."""
    d = v.shape[0]
    for i in range(d):
        cand = np.zeros(d, dtype=complex)
        cand[i] = 1.0
        w = cand - np.vdot(v, cand) * v
        nrm = np.linalg.norm(w)
        if nrm > 1e-6:
            return w / nrm
    raise BadParamsError("no orthogonal direction found (d must be >= 2)")


def kappa_rho(d: int, lam: float) -> DensityMatrix:
    """``diag(1 - (d-1) lam, lam, ..., lam)``: the family's rho with small eigenvalue ``lam``."""
    if d < 2:
        raise BadParamsError("d must be >= 2")
    if not 0.0 <= lam <= 1.0 / (d - 1):
        raise BadParamsError(f"lam must lie in [0, 1/(d-1)], got {lam}")
    diag = np.full(d, lam)
    diag[0] = 1.0 - (d - 1) * lam
    return DensityMatrix(np.diag(diag).astype(complex))


def kappa_vec(d: int, weight: float) -> np.ndarray:
    """``sqrt(weight)|0> + sqrt(1 - weight)|1>``: the family's target vector."""
    if not 0.0 <= weight <= 1.0:
        raise BadParamsError(f"weight must lie in [0, 1], got {weight}")
    return np.array([np.sqrt(weight), np.sqrt(1.0 - weight)] + [0.0] * (d - 2), dtype=complex)


def build_kappa_family(
    d: int, rho: DensityMatrix, sigma_vec: np.ndarray, epsilon: float
) -> KappaFamily:
    if rho.dim != d or sigma_vec.shape != (d,):
        raise BadParamsError("rho and sigma_vec must have dimension d")
    sv = np.asarray(sigma_vec, dtype=complex)
    sv = sv / np.linalg.norm(sv)
    if rho.eigen.values[-1] < 1e-12:
        raise NotInvertibleError("rho must be invertible")

    s_rho_s = float((sv.conj() @ rho.mat @ sv).real)
    s_rho2_s = float((sv.conj() @ rho.mat @ rho.mat @ sv).real)
    kappa = s_rho2_s / s_rho_s**2
    eta = 1.0 / np.sqrt(s_rho_s)
    f = np.sqrt(s_rho_s)
    if epsilon <= 0 or epsilon > kappa**-0.5:
        raise EpsilonTooLargeError(f"epsilon must lie in (0, kappa^-1/2 = {kappa**-0.5:.4g}]")
    if epsilon > 2 * f:
        raise EpsilonTooLargeError("epsilon exceeds 2 F; no rotated vector exists")

    sqrt_rho = matcore.psd_function(rho.eigen, np.sqrt)
    mc = sqrt_rho.T  # grid of (1 (x) sqrt(rho)) |Omega>
    md = np.outer(sv.conj(), sv)
    inst = UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))

    v = sqrt_rho @ sv
    v = v / np.linalg.norm(v)
    u = _unit_perp(v)
    cos = 1 - epsilon / f
    vhat = cos * v + np.sqrt(max(1 - cos**2, 0.0)) * u
    vhat_perp = -np.sqrt(max(1 - cos**2, 0.0)) * v + cos * u
    s_perp = _unit_perp(sv)
    r_partial = np.outer(sv, vhat.conj()) + np.outer(s_perp, vhat_perp.conj())
    r = uhlmann.unitary_completion(r_partial)

    ov = states.overlap(inst.d, r, inst.c).real
    if abs(ov - (f - epsilon)) > 1e-8:
        raise BadParamsError(f"adversary overlap {ov} != F - eps = {f - epsilon}")
    residual = uhlmann.rigidity_residual(inst, r)
    if residual < kappa * epsilon**2 - 1e-8:
        raise BadParamsError("adversary residual fell below kappa eps^2")
    kap_measured = uhlmann.obliqueness_kappa(inst)
    eta_measured = uhlmann.spectral_gap_eta(inst)
    if abs(kap_measured - kappa) > 1e-9 * max(1.0, kappa) or abs(eta_measured - eta) > 1e-9 * eta:
        raise BadParamsError("measured (kappa, eta) disagree with the closed forms")
    return KappaFamily(
        d=d,
        rho=rho,
        sigma_vec=sv,
        epsilon=float(epsilon),
        kappa=kappa,
        eta=float(eta),
        fidelity=float(f),
        residual=residual,
        instance=inst,
        adversary_r=r,
    )


class BoostedKappa(Record):
    """Fidelity-boosted variant of a KappaFamily base pair.

    Mixing both states in equal superposition with a fresh orthogonal
    product direction lifts the fidelity to ``(1 + F_base)/2 >= 1/2`` and
    the gap to exactly 1, while the obliqueness carries over unchanged
    (``kappa = kappa_base``).  Since ``kappa_base`` can approach
    ``1/F_base^2`` but never reach it, the boosted obliqueness stays
    strictly below ``1/F_base^2`` as well.
    """

    instance: UhlmannInstance
    fidelity: float
    eta: float
    kappa: float
    kappa_base: float
    fidelity_base: float


def build_boosted_kappa(base: KappaFamily) -> BoostedKappa:
    d = base.d
    mc = np.zeros((d + 1, d + 1), dtype=complex)
    md = np.zeros((d + 1, d + 1), dtype=complex)
    mc[:d, :d] = base.instance.c.coeffs / np.sqrt(2)
    md[:d, :d] = base.instance.d.coeffs / np.sqrt(2)
    mc[d, d] = 1 / np.sqrt(2)
    md[d, d] = 1 / np.sqrt(2)
    inst = UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))
    f = inst.fidelity()
    eta = uhlmann.spectral_gap_eta(inst)
    kappa = uhlmann.obliqueness_kappa(inst)
    if f < 0.5 - 1e-9:
        raise BadParamsError(f"boosted fidelity {f} fell below 1/2")
    if eta < 1.0 - 1e-6:
        raise BadParamsError(f"boosted gap {eta} fell below 1")
    if kappa < base.kappa * (1 - 1e-6):
        raise BadParamsError("boost lost obliqueness")
    return BoostedKappa(
        instance=inst,
        fidelity=f,
        eta=eta,
        kappa=kappa,
        kappa_base=base.kappa,
        fidelity_base=base.fidelity,
    )


# ---------------------------------------------------------------------------
# Rounding the spectral gap
# ---------------------------------------------------------------------------


class RoundedPair(Record):
    """A nearby pair whose geometric-mean gap clears ``eta_target``."""

    original: UhlmannInstance
    rounded: UhlmannInstance
    eta_target: float
    mix_delta: float
    beta: float          # 1 / Tr(Pi sigma_hat) >= 1
    overlap_c: float     # |<C~|C>|^2
    overlap_d: float     # |<D~|D>|^2
    gap: float


def round_spectral_gap(
    inst: UhlmannInstance, eta_target: float, mix_delta: float = 1e-6
) -> RoundedPair:
    """Lift the gap of ``rho^-1 # sigma`` above ``eta_target``.

    Step 1 mixes both reduced states with ``mix_delta`` of the maximally
    mixed state (making them invertible); step 2 projects sigma onto the
    eigenspace of the mean with eigenvalues >= ``eta_target`` and
    renormalizes.  The rounded C keeps its original B-side frame; the
    rounded D takes the purification of the projected sigma closest to D,
    which realizes the gentle-measurement fidelity as a state overlap.
    """
    if not 0.0 < eta_target < 1.0:
        raise BadParamsError("eta_target must lie in (0, 1)")
    if not 0.0 < mix_delta < 1.0:
        raise BadParamsError("mix_delta must lie in (0, 1)")
    if inst.dim_a > inst.dim_b:
        raise BadParamsError("rounding requires dim_a <= dim_b")
    d = inst.dim_a
    rho_hat = (1 - mix_delta) * inst.rho.mat + mix_delta * np.eye(d) / d
    sig_hat = (1 - mix_delta) * inst.sigma.mat + mix_delta * np.eye(d) / d

    rr, rir = uhlmann._sqrt_pair(rho_hat)
    mean = uhlmann._sandwiched_sqrt(rir, rr, sig_hat)  # rho_hat^-1 # sig_hat
    w, v = matcore.lapack("eigh", matcore.hermitian_part(mean))
    start = int(np.searchsorted(w, eta_target))  # eigh's values ascend: those >= eta_target come last
    if start == w.size:
        raise DegenerateProjectionError("no eigenvalue of the mean clears eta_target")
    pi = v[:, start:] @ dagger(v[:, start:])
    t = float(np.trace(pi @ sig_hat).real)
    beta = 1.0 / t
    sig_rounded = pi @ sig_hat @ pi / t
    sig_rounded = matcore.hermitian_part(sig_rounded)

    x_c, x_d = inst.frame.x_c, inst.frame.x_d
    mc_new = rr @ x_c.T

    # D-side: purifications of sig_rounded have grids sqrt(sig_rounded) A x_d.T
    # with A unitary, and overlap Tr(A* N) with N = sqrt(sig_rounded) sqrt(sigma).
    # A = sgn(N) attains ||N||_1 = F(sigma, sig_rounded), the gentle-measurement
    # fidelity, as an actual state overlap.
    sr_new = matcore.psd_sqrt(sig_rounded)
    n = sr_new @ inst.spectral_core().sqrt_sigma
    align = uhlmann.unitary_completion(matcore.matrix_sign(n))
    md_new = sr_new @ align @ x_d.T

    c_new = BipartitePureState(mc_new / np.linalg.norm(mc_new))
    d_new = BipartitePureState(md_new / np.linalg.norm(md_new))
    rounded = UhlmannInstance.from_states(c_new, d_new)

    gap = uhlmann.spectral_gap_eta(rounded)
    ov_c = abs(np.vdot(inst.c.coeffs, c_new.coeffs)) ** 2
    ov_d = abs(np.vdot(inst.d.coeffs, d_new.coeffs)) ** 2
    if gap < eta_target - 1e-8:
        raise BadParamsError(f"rounded gap {gap} below target {eta_target}")
    thresh = 1 - eta_target**2 - 1e-8
    if ov_c < thresh or ov_d < thresh:
        raise BadParamsError(
            f"overlaps ({ov_c:.6f}, {ov_d:.6f}) fell below 1 - eta_target^2; "
            "reduce mix_delta"
        )
    return RoundedPair(
        original=inst,
        rounded=rounded,
        eta_target=eta_target,
        mix_delta=mix_delta,
        beta=beta,
        overlap_c=float(ov_c),
        overlap_d=float(ov_d),
        gap=gap,
    )
