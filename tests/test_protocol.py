import contextlib
import io

import numpy as np
import pytest

from conftest import random_unitary
from uhlmann import cli
from uhlmann.adversarial import build_eta_family
from uhlmann.errors import BadParamsError, NotNormalizedError, UhlmannError
from uhlmann.protocol import (
    ProtocolParams,
    ProverStrategy,
    TrialInvariants,
    accept_probability,
    completeness_experiment,
    completeness_reference_instance,
    derangement_prover,
    epsilon_prover,
    honest_prover,
    input_ensemble_state,
    random_prover,
    run_protocol,
    soundness_probe,
)
from uhlmann.uhlmann import canonical_w, obliqueness_kappa, random_instance, spectral_gap_eta


def test_round_count_formula():
    params = ProtocolParams.create(n=2, r=2, gamma=0.8, eta=1.0, kappa=1.0)
    assert params.m == 64
    assert params.threshold == pytest.approx(64 * (0.8 - 1 / 8))


def test_params_validation():
    with pytest.raises(BadParamsError):
        ProtocolParams.create(n=2, r=2, gamma=0.01, eta=1.0, kappa=1.0)  # margin <= 0
    with pytest.raises(BadParamsError):
        ProtocolParams.create(n=0, r=2, gamma=0.5, eta=1.0, kappa=1.0)


@pytest.mark.parametrize("kw", [{"eta": 1e-200}, {"eta": float("nan")}, {"kappa": float("inf")},
                                {"eta": float("inf")}, {"gamma": float("nan")}, {"gamma": float("inf")}])
def test_params_reject_non_finite_and_overflowing_values(kw):
    # a tiny eta overflows (kappa r / eta)^2, and a NaN fails every comparison of the range check
    with pytest.raises(BadParamsError) as err:
        ProtocolParams.create(**{"n": 2, "r": 2, "gamma": 0.8, "eta": 1.0, "kappa": 1.0, **kw})
    if "gamma" in kw:  # non-finite gamma leaves the margin outside (0, 1), with the message it always had
        assert str(err.value).startswith("gamma - eta/(4 kappa r) = ")
    else:
        assert "eta" in str(err.value)


def test_reference_instance_parameters():
    inst = completeness_reference_instance(2)
    assert spectral_gap_eta(inst) == pytest.approx(1, abs=1e-12)
    assert obliqueness_kappa(inst) == pytest.approx(1, abs=1e-12)
    assert inst.fidelity() == pytest.approx((np.sqrt(2) + 2) / 4, abs=1e-12)


def test_honest_accept_probability_is_fidelity_squared():
    inst = completeness_reference_instance(2)
    p = accept_probability(inst, honest_prover(inst))
    assert p == pytest.approx(inst.fidelity() ** 2, abs=1e-10)


def test_identity_prover_on_equal_states(rng):
    from uhlmann.uhlmann import UhlmannInstance, random_instance

    base = random_instance(4, rng)
    inst = UhlmannInstance.from_states(base.c, base.c)
    prover = ProverStrategy("identity", np.eye(4, dtype=complex))
    assert accept_probability(inst, prover) == pytest.approx(1, abs=1e-10)


def test_ancilla_prover_matches_plain():
    # embedding the prover unitary as U (x) 1_anc changes nothing
    inst = completeness_reference_instance(2)
    u = honest_prover(inst).channel
    big = np.kron(u, np.eye(2))
    prover = ProverStrategy("anc", big, ancilla_dim=2)
    assert accept_probability(inst, prover) == pytest.approx(
        accept_probability(inst, honest_prover(inst)), abs=1e-12
    )
    xi = input_ensemble_state(inst, np.random.default_rng(5))
    from uhlmann.protocol import prover_output_density

    np.testing.assert_allclose(
        prover_output_density(prover, xi),
        prover_output_density(honest_prover(inst), xi),
        atol=1e-12,
    )


def test_run_protocol_deterministic():
    inst = completeness_reference_instance(2)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    prover = honest_prover(inst)
    xi = input_ensemble_state(inst, np.random.default_rng(1))
    a = run_protocol(inst, params, prover, xi, seed=42)
    b = run_protocol(inst, params, prover, xi, seed=42)
    assert a == b
    assert 1 <= a.i_star <= params.m
    assert 0 <= a.j <= params.m - 1


def test_degenerate_threshold_always_accepts():
    # a non-positive threshold cannot be built through create(); assembling
    # the record directly shows every run accepts regardless of the prover
    inst = completeness_reference_instance(2)
    params = ProtocolParams(n=2, r=2, gamma=0.1, eta=1.0, kappa=1.0, m=16, threshold=-1.0)
    prover = random_prover(inst.dim_b, seed=9)
    xi = input_ensemble_state(inst, np.random.default_rng(2))
    assert all(
        run_protocol(inst, params, prover, xi, seed=t).accepted for t in range(20)
    )


def test_empirical_rate_tracks_born_probability():
    # derangement adversary: 10^4 sampled rounds within 3 standard errors
    fam = build_eta_family(4, eta=0.4, tau=0.5)
    inst = fam.instance
    prover = derangement_prover(fam.adversary_r)
    p = accept_probability(inst, prover)
    assert p == pytest.approx((inst.fidelity() - fam.epsilon) ** 2, abs=1e-10)
    rng = np.random.default_rng(77)
    n_rounds = 10_000
    hits = int((rng.random(n_rounds) < p).sum())
    rate = hits / n_rounds
    sigma = np.sqrt(p * (1 - p) / n_rounds)
    assert abs(rate - p) <= 3 * sigma + 1e-12


def test_library_draw_follows_the_binomial_law():
    # 20 000 trials through run_protocol, one generator: j ~ Binomial(m - 1, p)
    fam = build_eta_family(4, eta=0.4, tau=0.5)
    inst = fam.instance
    prover = derangement_prover(fam.adversary_r)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    xi = input_ensemble_state(inst, np.random.default_rng(6))
    inv = TrialInvariants.of(inst, prover, xi)
    rng = np.random.default_rng(77)
    js = np.array([run_protocol(inst, params, prover, xi, rng, inv).j for _ in range(20_000)])
    n, p = params.m - 1, inv.accept_probability
    assert abs(js.mean() - n * p) <= 4 * np.sqrt(n * p * (1 - p) / js.size)
    assert js.var() == pytest.approx(n * p * (1 - p), rel=0.05)


def test_born_value_at_the_ends_of_the_unit_interval():
    # |amp|^2 can round just above 1: then every test round accepts, and nothing raises
    inst = completeness_reference_instance(2)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    prover = honest_prover(inst)
    xi = input_ensemble_state(inst, np.random.default_rng(1))
    for p, j in [(1 + 2.0**-52, params.m - 1), (0.0, 0)]:
        inv = TrialInvariants(accept_probability=p, output_state_fidelity=1.0)
        assert run_protocol(inst, params, prover, xi, seed=3, invariants=inv).j == j


def test_params_reject_rounds_past_int64():
    with pytest.raises(BadParamsError, match=r"^m = \d{20} rounds: m - 1 must fit in int64"):
        ProtocolParams.create(n=2, r=2, gamma=0.8, eta=1e-9, kappa=1.0)
    assert ProtocolParams.create(n=2, r=2, gamma=0.8, eta=1e-8, kappa=1.0).m < 2**63


def test_block_keys_never_seed_the_input_stream(monkeypatch):
    # no trial may draw from the input's stream, trial 192 = 0xC0 included. Keys are compared as tuples
    # and as seed-sequence states, since numpy pads a short key with zero words: (5, 0xC0) and
    # (5, 0xC0, 0) seed the same stream. 64 * 300 trials cover every shorter run: its keys are a prefix.
    keys = []
    default_rng = np.random.default_rng

    def recorded(seed=None):
        if isinstance(seed, tuple):
            keys.append(seed)
        return default_rng(seed)

    inst = completeness_reference_instance(2)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    trials = 64 * 300
    runs = {  # name: (run, the keys of its input states)
        "cli": (lambda: cli.main(["protocol", "--trials", str(trials), "--seed", "5"]), [(5, 0xC0)]),
        "completeness": (lambda: completeness_experiment(inst, params, trials, seed=5), [(5, 0xC0)]),
        "soundness": (lambda: soundness_probe(inst, params, [honest_prover(inst)] * 2, trials, seed=5),
                      [(5, 0, 0xC0), (5, 1, 0xC0)]),
    }
    monkeypatch.setattr(np.random, "default_rng", recorded)
    for name, (run, inputs) in runs.items():
        keys.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            run()
        blocks = [k for k in keys if k not in inputs]
        assert len(keys) - len(blocks) == len(inputs), name
        assert len(blocks) == 300 * len(inputs) and len(set(blocks)) == len(blocks), name
        pools = {np.random.SeedSequence(k).generate_state(4).tobytes() for k in inputs}
        assert not pools & {np.random.SeedSequence(k).generate_state(4).tobytes() for k in blocks}, name


@pytest.mark.parametrize("n,r", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_completeness_meets_bound(n, r):
    inst = completeness_reference_instance(n)
    params = ProtocolParams.for_instance(inst, n=n, r=r)
    trials = 400
    rate = completeness_experiment(inst, params, trials=trials, seed=5)
    sigma_hat = np.sqrt(max(rate * (1 - rate), 1e-9) / trials)
    assert rate >= 1 - 2.0**-n - 3 * sigma_hat


def test_soundness_probe():
    inst = completeness_reference_instance(2)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    provers = [
        honest_prover(inst),
        epsilon_prover(inst, 0.01, seed=3),
        random_prover(inst.dim_b, seed=3),
    ]
    report = soundness_probe(inst, params, provers, trials=300, seed=8)
    rows = {row["label"]: row for row in report.rows}
    assert rows["honest"]["trace_distance"] <= 1e-8
    assert rows["honest"]["acceptance"] >= 0.9
    eps_row = rows["epsilon:0.01"]
    if eps_row["acceptance"] >= 0.5:
        assert eps_row["trace_distance"] <= 1 / params.r + 1e-6
    assert rows["random"]["acceptance"] < 0.5
    assert report.max_distance_accepted <= 1 / params.r + 1e-6


def test_soundness_probe_traces_out_an_ancilla():
    # the trace distance of an ancilla prover against a brute-force one: |C> on Dom(W) times |0_anc>,
    # 1_A (x) U on B (x) anc, the ancilla traced out, over the domain weight
    inst = random_instance(4, np.random.default_rng(41))
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    honest = honest_prover(inst)
    provers = [ProverStrategy("honest_anc", np.kron(honest.channel, np.eye(2)), ancilla_dim=2),
               ProverStrategy("haar_anc", random_unitary(np.random.default_rng(42), 8), ancilla_dim=2)]
    report = soundness_probe(inst, params, provers, trials=3, seed=1)
    w = canonical_w(inst)
    mc = (inst.c.coeffs @ (w.conj().T @ w).T).ravel()

    def joint(u, k):
        vec = np.kron(np.eye(inst.dim_a), u) @ np.kron(mc, np.eye(k)[0])
        rho = np.outer(vec, vec.conj()).reshape(mc.size, k, mc.size, k)
        return np.trace(rho, axis1=1, axis2=3) / np.vdot(mc, mc).real

    target = joint(honest.channel, 1)
    brute = [0.5 * np.abs(np.linalg.eigvalsh(joint(p.channel, 2) - target)).sum() for p in provers]
    np.testing.assert_allclose([row["trace_distance"] for row in report.rows], brute, rtol=0, atol=1e-12)
    assert brute[0] <= 1e-12 < 0.1 < brute[1]


def test_output_fidelity_honest_is_one():
    inst = completeness_reference_instance(2)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    xi = input_ensemble_state(inst, np.random.default_rng(4))
    out = run_protocol(inst, params, honest_prover(inst), xi, seed=0)
    assert out.output_state_fidelity == pytest.approx(1, abs=1e-9)


def test_prover_strategy_rejects_nonunitary():
    from uhlmann.errors import NotUnitaryError

    with pytest.raises(NotUnitaryError):
        ProverStrategy("broken", np.diag([1.0, 0.5]).astype(complex))


@pytest.mark.parametrize("which", ["honest", "random", "derangement"])
def test_run_protocol_same_with_precomputed_invariants(which):
    fam = build_eta_family(4, eta=0.4, tau=0.5)
    inst = fam.instance
    prover = {
        "honest": honest_prover(inst),
        "random": random_prover(inst.dim_b, seed=3),
        "derangement": derangement_prover(fam.adversary_r),
    }[which]
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    xi = input_ensemble_state(inst, np.random.default_rng(6))
    inv = TrialInvariants.of(inst, prover, xi)
    assert inv.accept_probability == accept_probability(inst, prover)
    for seed in [0, 1, (7, 2)]:
        assert run_protocol(inst, params, prover, xi, seed, inv) == run_protocol(
            inst, params, prover, xi, seed
        )


@pytest.mark.parametrize("trials", [0, -3])
def test_experiments_reject_trials_below_one(trials):
    inst = completeness_reference_instance(2)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    with pytest.raises(BadParamsError):
        completeness_experiment(inst, params, trials=trials, seed=1)
    with pytest.raises(BadParamsError):
        soundness_probe(inst, params, [honest_prover(inst)], trials=trials, seed=1)


def test_protocol_subcommand_decompositions(decompositions):
    # the Born value, canonical completion and output fidelity are built once,
    # not once per trial (about 6 decompositions per trial otherwise), and the
    # canonical W and its completion once per command; the output fidelity takes none
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["protocol", "--trials", "100", "--seed", "1"]) == 0
    assert decompositions == {"svd": 5, "eigh": 1, "eigvalsh": 1}


def test_epsilon_protocol_decompositions(decompositions):
    # the walk's random completion shares the honest completion's basis of W
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["protocol", "--prover", "epsilon:0.05", "--trials", "100", "--seed", "1"]) == 0
    # the walk adds one eigh and its one gauge QR
    assert decompositions == {"svd": 5, "eigh": 2, "eigvalsh": 1, "qr": 1}


@pytest.mark.parametrize("n", [0, -1])
def test_completeness_reference_instance_rejects_n_below_one(n):
    with pytest.raises(BadParamsError, match=r"^n and r must be positive integers$"):
        completeness_reference_instance(n)


def _output_fidelity_oracle(inst, prover, xi):
    """F(rho, |t><t|) = sqrt(<t|rho|t> / (<t|t> Tr rho)) at 50 digits, the float64 channel, completion
    and input taken as exact: rho is the ancilla-traced output of the channel on |xi>|0>."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        n, k = xi.shape[0], prover.ancilla_dim
        u = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in prover.channel])
        c = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in inst.spectral_core().completion])
        x = mpmath.matrix([mpmath.mpc(complex(z)) for z in xi])
        padded = mpmath.matrix(n * k, 1)
        for b in range(n):
            padded[b * k] = x[b]
        out, t = u * padded, c * x
        tt, tr = (sum(abs(z) ** 2 for z in v) for v in (t, out))
        num = sum(abs(sum(mpmath.conj(t[b]) * out[b * k + e] for b in range(n))) ** 2 for e in range(k))
        return mpmath.sqrt(num / (tt * tr))


def _cli_input(inst):
    return input_ensemble_state(inst, np.random.default_rng((3, 0xC0)))  # seed 3's, as in the goldens


@pytest.mark.parametrize("which", ["random", "epsilon:0.05", *(f"haar_ancilla:{s}" for s in range(4))])
def test_output_fidelity_matches_the_oracle(which):
    # the closed form for a pure target is within 2 ulp; the route through h's eigendecomposition
    # missed that by 1.3e-15 relative on the random prover
    inst = completeness_reference_instance(2)
    if which.startswith("haar_ancilla:"):
        s = int(which.split(":")[1])
        prover = ProverStrategy("haar", random_unitary(np.random.default_rng(s), 8), ancilla_dim=2)
        xi = input_ensemble_state(inst, np.random.default_rng((s, 0xC0)))
    else:
        prover = random_prover(inst.dim_b, 3) if which == "random" else epsilon_prover(inst, 0.05, 3)
        xi = _cli_input(inst)
    got = TrialInvariants.of(inst, prover, xi).output_state_fidelity
    want = _output_fidelity_oracle(inst, prover, xi)
    assert abs(got - want) <= 2.0**-51 * want


def test_output_fidelity_is_exact_for_the_honest_and_derangement_provers():
    for n in (1, 2, 3):
        inst = completeness_reference_instance(n)
        for s in range(10):
            xi = input_ensemble_state(inst, np.random.default_rng(s))
            assert TrialInvariants.of(inst, honest_prover(inst), xi).output_state_fidelity == 1.0
    fam = build_eta_family(4, eta=0.4, tau=0.5)
    inv = TrialInvariants.of(fam.instance, derangement_prover(fam.adversary_r), _cli_input(fam.instance))
    assert inv.output_state_fidelity == 0.0


@pytest.mark.parametrize("xi", [np.zeros(4), [1e-200, 0, 0, 0], [np.nan, 0, 0, 0]])
def test_output_fidelity_rejects_zero_and_underflowing_inputs(xi):
    inst = completeness_reference_instance(2)
    with pytest.raises(NotNormalizedError, match="^input state has squared norm ") as err:
        TrialInvariants.of(inst, honest_prover(inst), np.asarray(xi, dtype=complex))
    assert isinstance(err.value, UhlmannError) and isinstance(err.value, ValueError)
