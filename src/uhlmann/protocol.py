"""Monte-Carlo simulation of the 2-round interactive synthesis protocol.

The verifier runs ``m = ceil(8 n (kappa r / eta)^2)`` rounds.  In every
round except a uniformly random slot ``i*`` it prepares ``|C>``, ships
subsystem B to the prover, applies ``D*`` to what comes back, and counts
the all-zeros outcome; in round ``i*`` it routes the actual input through
the prover.  It accepts when the count ``j`` reaches
``m (gamma - eta / (4 kappa r))``.

Two faithful quirks, kept as stated rather than repaired: only ``m - 1``
test rounds occur although the threshold is scaled by ``m``, and the
per-round accept probability of an honest unitary prover is the Born
value ``F(rho, sigma)^2``, so ``gamma`` defaults to that measured value
(``ProtocolParams.for_instance``) instead of guessing a convention.

Per-round measurements are never approximated: the Born probability is
computed exactly from the statevector, and the count ``j`` of accepted test
rounds is drawn from its exact law, Binomial(m - 1, p).  A trial loop keyed
``key`` (``(seed,)``, or ``(seed, prover index)`` in the soundness probe)
draws the input from ``default_rng((*key, 0xC0))`` and runs its trials in
blocks of 64: block b draws from ``default_rng((*key, 0xB10C, b))``, so
trial t depends only on the key and on t, and no trial shares the input's
stream.
"""

from __future__ import annotations

import numpy as np

from . import matcore, states, uhlmann
from .errors import BadParamsError, DimensionMismatchError, NotNormalizedError, NotUnitaryError
from .matcore import Record, dagger
from .states import BipartitePureState
from .uhlmann import UhlmannInstance

__all__ = [
    "ProtocolParams",
    "ProverStrategy",
    "RunOutcome",
    "SoundnessReport",
    "TrialInvariants",
    "completeness_experiment",
    "completeness_reference_instance",
    "derangement_prover",
    "epsilon_prover",
    "honest_prover",
    "input_ensemble_state",
    "random_prover",
    "run_protocol",
    "soundness_probe",
]


class ProtocolParams(Record):
    """Round count and acceptance threshold for one protocol execution."""

    n: int
    r: int
    gamma: float
    eta: float
    kappa: float
    m: int
    threshold: float

    @classmethod
    def create(cls, n: int, r: int, gamma: float, eta: float, kappa: float) -> "ProtocolParams":
        if n < 1 or r < 1:
            raise BadParamsError("n and r must be positive integers")
        if not np.isfinite([eta, kappa]).all():
            raise BadParamsError(f"eta and kappa must be finite, got eta = {eta}, kappa = {kappa}")
        if eta <= 0 or kappa < 1 - 1e-9:
            raise BadParamsError("need eta > 0 and kappa >= 1")
        try:
            m = int(np.ceil(8 * n * (kappa * r / eta) ** 2))
        except OverflowError:
            raise BadParamsError(f"eta = {eta}: the round count 8 n (kappa r / eta)^2 overflows") from None
        if m > np.iinfo(np.int64).max:
            raise BadParamsError(f"m = {m} rounds: m - 1 must fit in int64 to be sampled; raise eta")
        margin = gamma - eta / (4 * kappa * r)
        if not 0.0 < margin < 1.0:
            raise BadParamsError(
                f"gamma - eta/(4 kappa r) = {margin} must lie in (0, 1); "
                "raise gamma or r"
            )
        threshold = m * margin
        if threshold >= m:
            raise BadParamsError("threshold must stay below m")
        return cls(n=n, r=r, gamma=gamma, eta=eta, kappa=kappa, m=m, threshold=threshold)

    @classmethod
    def for_instance(
        cls, inst: UhlmannInstance, n: int, r: int, gamma: float | None = None
    ) -> "ProtocolParams":
        """Parameters with gamma defaulting to the honest accept probability."""
        if inst.dim_b != 2**n:
            raise DimensionMismatchError(f"instance dim_b {inst.dim_b} != 2^n = {2**n}")
        eta = uhlmann.spectral_gap_eta(inst)
        kappa = uhlmann.obliqueness_kappa(inst)
        if gamma is None:
            gamma = accept_probability(inst, honest_prover(inst))
        return cls.create(n=n, r=r, gamma=gamma, eta=eta, kappa=kappa)


class ProverStrategy(Record):
    """A prover acting by a fixed unitary on B' (optionally with ancilla).

    ``channel`` has dimension ``dim_b * ancilla_dim``; the ancilla starts
    in |0> and is traced out of whatever the prover returns.
    """

    label: str
    channel: np.ndarray
    ancilla_dim: int = 1

    def __post_init__(self):
        ch = matcore.as_matrix(self.channel)
        n = ch.shape[0]
        if ch.shape[1] != n or self.ancilla_dim < 1 or n % self.ancilla_dim:
            raise DimensionMismatchError("channel must be square with dim divisible by ancilla_dim")
        if matcore.op_norm_exceeds(dagger(ch) @ ch - np.eye(n), 1e-9):
            raise NotUnitaryError(f"prover channel '{self.label}' is not unitary within 1e-9")
        object.__setattr__(self, "channel", ch)

    @property
    def dim_b(self) -> int:
        return self.channel.shape[0] // self.ancilla_dim


class RunOutcome(Record):
    accepted: bool
    j: int
    i_star: int
    output_state_fidelity: float


def honest_prover(inst: UhlmannInstance) -> ProverStrategy:
    """Deterministic unitary completion of the canonical transformation."""
    return ProverStrategy("honest", inst.spectral_core().completion)


def random_prover(d: int, seed: int) -> ProverStrategy:
    return ProverStrategy("random", uhlmann._haar_unitary(d, np.random.default_rng(seed)))


def derangement_prover(adversary_r: np.ndarray) -> ProverStrategy:
    return ProverStrategy("derangement", adversary_r)


def epsilon_prover(inst: UhlmannInstance, epsilon: float, seed: int) -> ProverStrategy:
    """Near-optimal adversary at overlap deficit close to ``epsilon``."""
    r, _ = uhlmann.near_optimal_unitary(inst, epsilon, np.random.default_rng(seed), deficit_fraction=1.0)
    return ProverStrategy(f"epsilon:{epsilon:g}", r)


def _with_ancilla(vec_b: np.ndarray, k: int) -> np.ndarray:
    """Tensor the last (B) axis with the |0> ancilla (B slow, ancilla fast)."""
    out = np.zeros((*vec_b.shape[:-1], vec_b.shape[-1] * k), dtype=complex)
    out[..., ::k] = vec_b
    return out


def accept_probability(inst: UhlmannInstance, prover: ProverStrategy) -> float:
    """Exact Born probability of the all-zeros outcome in a test round."""
    if prover.dim_b != inst.dim_b:
        raise DimensionMismatchError("prover acts on the wrong dimension")
    k = prover.ancilla_dim
    r = prover.channel
    if k == 1:
        amp = states.overlap(inst.d, r, inst.c)
        return float(abs(amp) ** 2)
    # |C>|0_anc> over A x (B x anc), the prover applied on (B x anc), then <D| contracted on the A, B legs
    moved = (_with_ancilla(inst.c.coeffs, k) @ r.T).reshape(inst.dim_a, inst.dim_b, k)
    anc_amp = np.einsum("ab,abe->e", inst.d.coeffs.conj(), moved)
    return float(np.linalg.norm(anc_amp) ** 2)


def prover_output_density(prover: ProverStrategy, input_state: np.ndarray) -> np.ndarray:
    """Density matrix the prover returns on the i*-slot input (ancilla traced)."""
    xi = np.asarray(input_state, dtype=complex)
    if xi.ndim != 1 or xi.shape[0] != prover.dim_b:
        raise DimensionMismatchError("input state has the wrong dimension")
    k = prover.ancilla_dim
    out = prover.channel @ _with_ancilla(xi, k)
    grid = out.reshape(prover.dim_b, k)
    return grid @ dagger(grid)


class TrialInvariants(Record):
    """The values every trial of one (instance, prover, input) shares; see ``run_protocol``.  The output's
    fidelity to the pure target ``t = completion @ input_state`` is ``sqrt(<t|rho|t> / (<t|t> Tr rho))``."""

    accept_probability: float
    output_state_fidelity: float

    @classmethod
    def of(cls, inst: UhlmannInstance, prover: ProverStrategy, input_state) -> "TrialInvariants":
        rho = prover_output_density(prover, input_state)
        t = inst.spectral_core().completion @ np.asarray(input_state, dtype=complex)
        tr, tt = np.trace(rho).real, np.vdot(t, t).real
        if not all(np.finfo(float).tiny <= x < np.inf for x in (tr, tt)):  # NaN fails too
            raise NotNormalizedError(f"input state has squared norm {tt}: zero, not finite or subnormal")
        fid = np.sqrt(max(np.vdot(t, (rho / tr) @ t).real, 0.0) / tt)
        return cls(accept_probability(inst, prover), float(fid))


def run_protocol(
    inst: UhlmannInstance,
    params: ProtocolParams,
    prover: ProverStrategy,
    input_state: np.ndarray,
    seed,
    invariants: TrialInvariants | None = None,
) -> RunOutcome:
    """Simulate one full protocol execution.

    RNG discipline (fixed, so identical inputs and seed reproduce the
    outcome bit for bit): ``seed`` is a seed or a Generator, which
    ``default_rng`` returns unchanged, and a trial advances it by one
    ``integers`` draw for ``i*`` and then one ``binomial`` draw of the
    count of ``m - 1`` test rounds accepted at the exact Born probability
    (clipped to [0, 1]: a value rounded just above 1 accepts every round).
    ``invariants`` holds the seed-independent Born value and output-state
    fidelity, ``TrialInvariants.of(inst, prover, input_state)``, which a
    trial loop builds once; it is a pure cache and never changes the
    result.  When omitted it is built here.
    """
    if invariants is None:
        invariants = TrialInvariants.of(inst, prover, input_state)
    rng = np.random.default_rng(seed)
    i_star = int(rng.integers(1, params.m + 1))
    j = int(rng.binomial(params.m - 1, min(max(invariants.accept_probability, 0.0), 1.0)))
    return RunOutcome(accepted=bool(j >= params.threshold), j=j, i_star=i_star,
                      output_state_fidelity=invariants.output_state_fidelity)


_TRIAL_BLOCK = 64
_BLOCK_TAG = 0xB10C  # not the input's 0xC0: a block key never seeds the input's stream


def _trial_loop(inst, params, prover, key: tuple, trials: int) -> tuple[TrialInvariants, list[RunOutcome]]:
    """The input's invariants and ``trials`` outcomes, streamed as the module docstring says.

    ``run_protocol`` is looked up through the module once per trial, so a wrapper of it sees each.
    """
    xi = input_ensemble_state(inst, np.random.default_rng((*key, 0xC0)))
    inv = TrialInvariants.of(inst, prover, xi)
    outs = []
    for t in range(trials):
        if t % _TRIAL_BLOCK == 0:
            rng = np.random.default_rng((*key, _BLOCK_TAG, t // _TRIAL_BLOCK))
        outs.append(run_protocol(inst, params, prover, xi, rng, inv))
    return inv, outs


def completeness_experiment(
    inst: UhlmannInstance,
    params: ProtocolParams,
    trials: int,
    seed: int,
) -> float:
    """Empirical acceptance frequency of the honest prover."""
    if trials < 1:
        raise BadParamsError(f"trials must be >= 1, got {trials}")
    _, outs = _trial_loop(inst, params, honest_prover(inst), (seed,), trials)
    return sum(o.accepted for o in outs) / trials


class SoundnessReport(Record):
    """Acceptance frequency and output deviation per probed prover."""

    r: int
    rows: list

    @property
    def max_distance_accepted(self) -> float:
        dists = [row["trace_distance"] for row in self.rows if row["acceptance"] >= 0.5]
        return max(dists) if dists else 0.0


def soundness_probe(
    inst: UhlmannInstance,
    params: ProtocolParams,
    prover_family: list[ProverStrategy],
    trials: int,
    seed: int,
) -> SoundnessReport:
    """Check accepted provers against the 1/r output-deviation promise.

    The deviation is the trace distance between the prover's action and
    the canonical map's on the B half of ``|C><C|``, correlations with A
    included, after projecting the input's B side onto the domain of W.
    The projection carries the same disclaimer as the rigidity statement:
    off the domain of W every completion is equally optimal, so behavior
    there is a gauge choice, not a soundness violation.
    """
    if trials < 1:
        raise BadParamsError(f"trials must be >= 1, got {trials}")
    if not prover_family:
        raise BadParamsError("prover_family must be nonempty")
    canonical = ProverStrategy("canonical", inst.spectral_core().completion)
    target = domain_output_density(inst, canonical)
    rows = []
    for pi, prover in enumerate(prover_family):
        inv, outs = _trial_loop(inst, params, prover, (seed, pi), trials)
        accepted = sum(o.accepted for o in outs)
        td = 0.5 * matcore.trace_norm(domain_output_density(inst, prover) - target)
        rows.append(
            {
                "label": prover.label,
                "acceptance": accepted / trials,
                "accept_probability": inv.accept_probability,
                "trace_distance": td,
                "meets_bound": td <= 1.0 / params.r + 1e-9,
            }
        )
    return SoundnessReport(r=params.r, rows=rows)


def domain_output_density(inst: UhlmannInstance, prover: ProverStrategy) -> np.ndarray:
    """Joint AB state after the prover acts on the W-domain part of ``|C>``.

    With W the canonical transformation, the B side of ``|C>`` is projected
    onto ``Dom(W) = Image(W* W)`` before routing through the prover; the
    ancilla (initialized to |0>) is traced out and the result renormalized
    by the domain weight ``<C|(1 x W* W)|C>``, the same for every prover.
    """
    if prover.dim_b != inst.dim_b:
        raise DimensionMismatchError("prover acts on the wrong dimension")
    w = uhlmann.canonical_w(inst)
    proj = dagger(w) @ w
    mc = inst.c.coeffs @ proj.T
    weight = float(np.linalg.norm(mc) ** 2)
    if weight <= 0.0:
        raise BadParamsError("|C> has no weight on the domain of W")
    k = prover.ancilla_dim
    if k == 1:
        vec = (mc @ prover.channel.T).ravel()
        return np.outer(vec, vec.conj()) / weight
    moved = (_with_ancilla(mc, k) @ prover.channel.T).reshape(inst.dim_a * inst.dim_b, k)
    return moved @ dagger(moved) / weight


def input_ensemble_state(inst: UhlmannInstance, rng: np.random.Generator) -> np.ndarray:
    """Draw a pure input from the eigen-ensemble of ``reduce_b(C)``."""
    eig = states.reduce_b(inst.c).eigen  # the draw indexes eigh's ascending order
    w, v = eig.values[::-1], eig.vectors[:, ::-1]
    w = np.clip(w.real, 0, None)
    w /= w.sum()
    idx = int(rng.choice(w.shape[0], p=w))
    return v[:, idx].copy()


def completeness_reference_instance(n: int) -> UhlmannInstance:
    """Commuting diagonal pair on ``2^n`` dims with kappa = 1.

    ``rho`` is maximally mixed; ``sigma`` moves the weight of the last
    basis state onto the first.  For n >= 2 the mean ``rho^-1 # sigma``
    then has eigenvalues ``{sqrt(2), 1, ..., 1}`` on its support, so the
    gap is exactly 1 while the fidelity stays below 1.
    """
    if n < 1:
        raise BadParamsError("n and r must be positive integers")
    d = 2**n
    sigma_diag = np.array([2.0 / d] + [1.0 / d] * (d - 2) + [0.0])
    mc = np.eye(d, dtype=complex) / np.sqrt(d)
    md = np.diag(np.sqrt(sigma_diag)).astype(complex)
    return UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))
