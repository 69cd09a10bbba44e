import tracemalloc

import numpy as np
import pytest

from conftest import walk_instances
from uhlmann import states, uhlmann
from uhlmann.adversarial import build_eta_family
from uhlmann.certificate import build_certificate, dual_bound, primal_probe, psd_core_check
from uhlmann.errors import BadParamsError
from uhlmann.matcore import dagger, op_norm, schur_psd_margin, trace_norm
from uhlmann.states import BipartitePureState
from uhlmann.uhlmann import (
    UhlmannInstance,
    canonical_w,
    near_optimal_unitary,
    obliqueness_kappa,
    random_instance,
    rigidity_report,
    rigidity_residual,
    spectral_gap_eta,
)


def maximally_mixed_instance(d):
    m = np.eye(d, dtype=complex) / np.sqrt(d)
    return UhlmannInstance.from_states(BipartitePureState(m), BipartitePureState(m))


def test_certificate_maximally_mixed_value():
    # rho = sigma = 1/d, eps = 0, alpha = -1: T = 0 and value = -Tr(P rho) = -1
    inst = maximally_mixed_instance(3)
    cert = build_certificate(inst, 0.0, alpha=-1.0)
    assert op_norm(cert.t) <= 1e-12
    assert cert.value == pytest.approx(-1.0, abs=1e-10)
    assert cert.feasible


def test_certificate_value_identity(rng):
    # at alpha = -kappa/eta the value is (kappa/eta) eps - Tr(P rho)
    for _ in range(20):
        inst = random_instance(int(rng.integers(2, 7)), rng)
        eta = spectral_gap_eta(inst)
        kappa = obliqueness_kappa(inst)
        eps = float(rng.uniform(0, 0.05))
        cert = build_certificate(inst, eps, alpha=-kappa / eta)
        fr = inst.frame
        w = canonical_w(inst)
        wr = fr.rotate_b_operator(w)
        p = dagger(wr) @ wr
        expected = (kappa / eta) * eps - np.trace(p @ fr.rho).real
        assert cert.value == pytest.approx(expected, abs=1e-8)
        assert cert.feasible
        assert cert.feasibility_margin >= -1e-8


def test_certificate_value_formula_fields(rng):
    inst = random_instance(4, rng)
    cert = build_certificate(inst, 0.02, alpha=-1.5)
    assert cert.value == pytest.approx(
        2 * trace_norm(cert.t) + cert.alpha * (inst.fidelity() - 0.02), abs=1e-9
    )
    for y in (cert.y1, cert.y2):
        assert op_norm(y - dagger(y)) <= 1e-8
        assert np.linalg.eigvalsh((y + dagger(y)) / 2).min() >= -1e-8


def test_psd_core(rng):
    inst = maximally_mixed_instance(4)
    assert psd_core_check(inst) == pytest.approx(0, abs=1e-8)
    from uhlmann.adversarial import build_eta_family

    assert psd_core_check(build_eta_family(4, 0.4, 0.5).instance) >= -1e-8
    worst = min(psd_core_check(random_instance(int(rng.integers(2, 7)), rng)) for _ in range(100))
    assert worst >= -1e-8


def test_primal_probe_saturated_by_derangement():
    # the diagonal family's derangement is feasible at overlap F - eps exactly and attains the
    # dual bound, so the bound is the primal optimum; the probe's walks stay below it
    fam = build_eta_family(4, eta=0.4, tau=0.5)
    inst, r = fam.instance, fam.adversary_r
    bound = dual_bound(inst, fam.epsilon)
    assert rigidity_residual(inst, r) == pytest.approx(bound, abs=1e-6)
    assert states.overlap(inst.d, r, inst.c).real == pytest.approx(inst.fidelity() - fam.epsilon, abs=1e-12)
    assert primal_probe(inst, fam.epsilon, trials=5, seed=2).best_residual <= bound + 1e-6


def test_dual_bound_matches_report(rng):
    inst = random_instance(5, rng)
    assert dual_bound(inst, 0.0) == pytest.approx(0, abs=1e-10)
    rep = rigidity_report(inst, 0.05)
    assert dual_bound(inst, 0.05) == pytest.approx(rep.delta_bound, abs=1e-9)
    mixed = maximally_mixed_instance(3)
    assert dual_bound(mixed, 0.05) == pytest.approx(0.1, abs=1e-9)


def test_dual_bound_identity_at_explicit_rank_tol():
    # at rank_tol=1e-2 the cut drops a weight the default cut keeps, so F
    # moves by 5e-4; the certificate must take F at the same cut as T, P, eta, kappa
    inst = build_eta_family(4, eta=1e-3, tau=0.5).instance
    core = inst.spectral_core(1e-2)
    assert abs(core.fidelity - inst.fidelity()) > 1e-4
    bound = dual_bound(inst, 0.01, rank_tol=1e-2)
    assert bound == pytest.approx(2 * core.kappa * 0.01 / core.eta, rel=1e-12)
    assert bound == pytest.approx(rigidity_report(inst, 0.01, rank_tol=1e-2).delta_bound, rel=1e-12)


def test_certificate_feasible_at_explicit_rank_tol():
    # T has a singular value at 2.8e-3 of its largest, below the 1e-2 cut.
    # ||T||_1 counts it, so Y1 and Y2 must keep it for the point to be feasible.
    inst = random_instance(6, np.random.default_rng(106))
    core = inst.spectral_core(1e-2)
    cert = build_certificate(inst, 0.01, -core.kappa / core.eta, rank_tol=1e-2)
    s = np.linalg.svd(cert.t, compute_uv=False)
    assert ((s > 1e-3 * s[0]) & (s < 1e-2 * s[0])).any()
    assert cert.feasible and cert.feasibility_margin >= -1e-12


@pytest.mark.parametrize("rank_tol", [1e-6, 1e-4, 1e-3])
def test_certificates_feasible_at_explicit_rank_tol_sweep(rank_tol):
    # cut at rank_tol, the polar blocks lost singular values that ||T||_1
    # still summed: 4 of these 300 were infeasible at 1e-4 and 13 at 1e-3
    infeasible = []
    for seed in range(300):
        inst = random_instance(2 + seed % 5, np.random.default_rng(seed))
        core = inst.spectral_core(rank_tol)
        cert = build_certificate(inst, 0.01, -core.kappa / core.eta, rank_tol=rank_tol)
        if not cert.feasible:
            infeasible.append(seed)
    assert infeasible == []


def test_primal_probe_zero_epsilon(rng):
    inst = random_instance(3, rng)
    probe = primal_probe(inst, 0.0, trials=10, seed=7)
    assert probe.best_residual <= 1e-8


def test_primal_probe_respects_weak_duality(rng):
    inst = random_instance(4, rng)
    eps = 0.01
    probe = primal_probe(inst, eps, trials=50, seed=11)
    assert probe.best_overlap >= inst.fidelity() - eps - 1e-9
    assert probe.best_residual <= dual_bound(inst, eps) + 1e-6


def test_primal_probe_determinism(rng):
    inst = random_instance(3, rng)
    a = primal_probe(inst, 0.02, trials=20, seed=3)
    b = primal_probe(inst, 0.02, trials=20, seed=3)
    assert a == b


# (best_residual, best_overlap) as float.hex at eps = 1e-2 and 1e-4, 40 trials,
# seed 17 + k for the k-th walk instance: one generator per block of 64 walks,
# default_rng((seed, block)), and W's kernel and cokernel bases from the SVD
# that gives W.
PROBE_GOLDEN = [
    ("0x1.abc97c15fba9ep-6", "0x1.7a73b854fd458p-1", "0x1.11c8a155c89f9p-12", "0x1.7f834d314bdf2p-1"),
    ("0x1.c61b2390eaa95p-6", "0x1.63ab5b2ec59bep-1", "0x1.22a363b0c8f6ap-12", "0x1.688e06fff031dp-1"),
    ("0x1.026103053fb2ep-5", "0x1.74b35ea1a1ae6p-1", "0x1.4abcba06b186dp-12", "0x1.799b5baa9129ep-1"),
    ("0x1.fdb8add75746dp-6", "0x1.595617835f60bp-1", "0x1.463fd9d68c850p-12", "0x1.5e1d9456d3bcap-1"),
    ("0x1.172b00bfe24bbp-6", "0x1.e3a47aed92972p-2", "0x1.6555c384efed4p-13", "0x1.edba851224f8ap-2"),
    ("0x1.568f90ea90b9ap-5", "0x1.ebcf429b3104bp-2", "0x1.b6900b58ea60cp-12", "0x1.f557c988288b2p-2"),
    ("0x1.50a6e8d4b7960p-6", "0x1.f6de39834d8a9p-1", "0x1.aef3dbb8c3c24p-13", "0x1.fbb9e2a78bc46p-1"),
]


def test_primal_probe_golden():
    for k, (inst, gold) in enumerate(zip(walk_instances(), PROBE_GOLDEN)):
        high, low = primal_probe(inst, 1e-2, 40, 17 + k), primal_probe(inst, 1e-4, 40, 17 + k)
        got = (high.best_residual, high.best_overlap, low.best_residual, low.best_overlap)
        np.testing.assert_allclose(got, [float.fromhex(g) for g in gold], rtol=0, atol=1e-12)


def test_primal_probe_golden_unreachable_target():
    # The deficit F - Re<D|(1 (x) R)|C> never exceeds 2, so at eps = 5 every
    # walk stops at the last doubled t, 16 pi (golden values as above).
    insts = walk_instances()
    for k, gold in ((1, ("0x1.15ee2098d4db1p+1", "-0x1.d9297402a84fdp-5")),
                    (6, ("0x1.68cf2780a3898p+1", "-0x1.84be3561b1f86p-2"))):
        probe = primal_probe(insts[k], 5.0, 10, 40 + k)
        np.testing.assert_allclose((probe.best_residual, probe.best_overlap),
                                   [float.fromhex(g) for g in gold], rtol=0, atol=1e-12)


# (best_residual, best_overlap) as float.hex at eps = 0, 1e-2 and 5, 130 trials
# (past two blocks of 64 walks), seed 29: the rank-deficient walk instance 5
# (a 3-dimensional kernel) and a full-rank pair.  Scoring the walks one at a
# time (one rigidity_residual and one states.overlap call per walk) gives the
# same bits; each walk's target is F - deficit, F the sum of the kept
# singular values of sigma^1/2 rho^1/2.
PROBE_GOLDEN_130 = {
    "deficient": [("0x1.2f8b442afab66p-99", "0x1.f5707063c39c0p-2"),
                  ("0x1.6f0e60df5749cp-5", "0x1.eb3eb5719645ep-2"),
                  ("0x1.bfba1462189e6p+1", "-0x1.8019ba1996008p-2")],
    "full": [("0x1.2b164fb5722a0p-48", "0x1.8322962b01748p-1"),
             ("0x1.4aff043c5d738p-5", "0x1.7e4980dd38f68p-1"),
             ("0x1.8f2dad7e78ca0p+1", "-0x1.7d63006783d88p-2")],
}


def test_primal_probe_golden_past_one_block():
    insts = {"deficient": walk_instances()[5],
             "full": random_instance(4, np.random.default_rng(4040), rank_c=4, rank_d=4)}
    for name, inst in insts.items():
        for eps, gold in zip((0.0, 1e-2, 5.0), PROBE_GOLDEN_130[name]):
            probe = primal_probe(inst, eps, 130, 29)
            assert (probe.best_residual.hex(), probe.best_overlap.hex()) == gold


def _probe_walks(inst, eps, seed, trials):
    """primal_probe's result, the walks it scores as (R's bytes, overlap, residual) in order,
    read through _walk_blocks, and the number of walks of each pass."""
    walk_blocks, walks, passes = uhlmann._walk_blocks, [], []

    def spy(*args):
        for rs, ovs in walk_blocks(*args):
            passes.append(len(rs))
            walks.extend(zip((r.tobytes() for r in rs), ovs, uhlmann._rigidity_residuals(inst, rs)))
            yield rs, ovs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uhlmann, "_walk_blocks", spy)
        probe = primal_probe(inst, eps, trials, seed)
    return probe, walks, passes


def test_probe_walks_do_not_depend_on_trials():
    # walk i draws from default_rng((seed, i // 64)) at offset i % 64 whatever the trial count:
    # a short last block draws a full block and keeps its first walks
    full = random_instance(4, np.random.default_rng(4040), rank_c=4, rank_d=4)
    for inst in (walk_instances()[5], full):
        walks = {trials: _probe_walks(inst, 1e-2, 31, trials)[1] for trials in (64, 100, 130)}
        assert [len(w) for w in walks.values()] == [64, 100, 130]
        assert walks[64] == walks[100][:64] == walks[130][:64]
        assert walks[100] == walks[130][:100]


@pytest.mark.parametrize("trials,blocks", [(1, 1), (64, 1), (65, 2), (100, 2), (128, 2), (130, 3)])
def test_primal_probe_creates_one_generator_per_block(trials, blocks, monkeypatch):
    inst, made = walk_instances()[5], []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    primal_probe(inst, 1e-2, trials, 8)
    assert made == [((8, b),) for b in range(blocks)]


def _per_block_walks(inst, eps, blocks):
    """(R's bytes, overlap, residual) of every walk, one ``_walk_blocks`` pass per 64-walk
    block and each walk scored alone by ``np.vdot`` and ``np.linalg.norm``: the grouping and
    scoring from before walks were computed a chunk of blocks at a time."""
    c, w = inst.c.coeffs, canonical_w(inst)
    walks = []
    for block in blocks:
        ((rs, _),) = uhlmann._walk_blocks(inst, eps, [block], None)
        moved = c @ ((w - rs) @ (dagger(w) @ w)).mT
        walks.extend((r.tobytes(), float(np.vdot(inst.d.coeffs, m).real), float(np.linalg.norm(x) ** 2))
                     for r, m, x in zip(rs, c @ rs.mT, moved))
    return walks


# (walk instance or "d32", trials, compute passes, epsilons): every walk instance at d <= 8
# is one chunk of up to 4096 walks; at d = 32 a chunk is 256 walks.
CHUNKED_CASES = [(k, trials, 1, (1e-2, 5.0)) for k in (0, 4, 5) for trials in (1, 64, 65, 130)] + [
    ("d32", 300, 2, (1e-2,)),
    (0, 5000, 2, (1e-2, 5.0)),
]


@pytest.mark.parametrize("name,trials,passes,epsilons", CHUNKED_CASES)
def test_chunked_probe_matches_per_block_probe_bit_for_bit(name, trials, passes, epsilons):
    if name == "d32":
        inst = random_instance(32, np.random.default_rng(32), rank_c=16, rank_d=29)
    else:
        inst = walk_instances()[name]
    for eps in epsilons:
        probe, walks, lengths = _probe_walks(inst, eps, 13, trials)
        assert len(lengths) == passes and sum(lengths) == trials
        blocks = [([np.random.default_rng((13, b))], 64, min(64, trials - 64 * b)) for b in range(-(-trials // 64))]
        reference = _per_block_walks(inst, eps, blocks)
        assert walks == reference
        best_res, best_ov = 0.0, inst.fidelity()
        for _, ov, res in reference:
            if res > best_res:
                best_res, best_ov = res, ov
        assert (probe.best_residual.hex(), probe.best_overlap.hex()) == (best_res.hex(), best_ov.hex())


@pytest.mark.parametrize("d,trials", [(64, 128), (32, 300), (6, 20000)])
def test_chunked_probe_memory_is_bounded(d, trials):
    inst = random_instance(d, np.random.default_rng(d), rank_c=d // 2, rank_d=d - 1)
    inst.spectral_core().completion_basis  # the core's own memory is not the walks'
    tracemalloc.start()
    try:
        primal_probe(inst, 1e-2, trials, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


def test_psd_cross_check_holds_no_full_size_temporary():
    # the 2d x 2d block is built once, already Hermitian; eigvalsh reads it without a second copy
    inst = random_instance(64, np.random.default_rng(3), rank_c=32, rank_d=32)
    core = inst.spectral_core()
    cert = build_certificate(inst, 0.01, alpha=-core.kappa / core.eta)
    y1, b, y2 = cert.y1, dagger(cert.t), cert.y2
    tracemalloc.start()
    try:
        margin = schur_psd_margin(y1, b, y2, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = np.block([[y1, b], [dagger(b), y2]])
    assert peak < 3 * block.nbytes
    assert margin == np.linalg.eigvalsh((block + dagger(block)) / 2)[0] == cert.feasibility_margin


@pytest.mark.parametrize("trials", [0, -3])
def test_primal_probe_rejects_trials_below_one(trials):
    inst = random_instance(3, np.random.default_rng(21))
    with pytest.raises(BadParamsError, match=r"^trials must be >= 1$"):
        primal_probe(inst, 0.01, trials, 1)


@pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf"), -float("inf")])
def test_epsilon_must_be_finite_and_nonnegative(eps):
    inst = random_instance(3, np.random.default_rng(21))
    for call in (
        lambda: rigidity_report(inst, eps),
        lambda: build_certificate(inst, eps, alpha=-1.0),
        lambda: dual_bound(inst, eps),
        lambda: primal_probe(inst, eps, trials=2, seed=0),
        lambda: near_optimal_unitary(inst, eps, np.random.default_rng(0)),
    ):
        with pytest.raises(BadParamsError, match="epsilon must be finite and >= 0"):
            call()


def test_epsilon_zero_is_accepted():
    inst = random_instance(3, np.random.default_rng(21))
    assert rigidity_report(inst, 0.0).delta_bound == 0.0
    assert build_certificate(inst, 0.0, alpha=-1.0).feasible
    _, ov = near_optimal_unitary(inst, 0.0, np.random.default_rng(0))
    assert ov >= inst.fidelity() - 1e-9
