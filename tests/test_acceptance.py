"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s``); the printed
detail carries the measured extremes.  Criterion 10 asserts the identity
chain from the rigidity residual to the representation distance in its
exact form: the residual ``||(1 (x) (U - W~))|C>||^2`` equals the
multiplication defect and the dilated distance
``E_g ||(1 (x) R(g))V - V U_g||_rho^2``, and exceeds the compressed
distance ``E_g ||U_g - V*R(g)V||_rho^2`` by exactly the compression gap
``1 - E_g Tr(M_g* M_g rho)`` with ``M_g = V*R(g)V`` (for Z2 the distance is
half the defect).
"""

import time

import numpy as np
import pytest

from uhlmann import states
from uhlmann.adversarial import (
    build_eta_family,
    build_kappa_family,
    eta_family_reverse_probe,
    kappa_rho,
    kappa_vec,
    round_spectral_gap,
)
from uhlmann.certificate import build_certificate, primal_probe, psd_core_check
from uhlmann.grouprep import FiniteGroup, intertwiner, perturbed_rep, stability_check
from uhlmann.matcore import (
    dagger,
    matrix_sign,
    op_norm,
    pseudoinverse,
    schur_psd_margin,
)
from uhlmann.protocol import ProtocolParams, completeness_experiment, completeness_reference_instance
from uhlmann.uhlmann import (
    canonical_w,
    geometric_mean,
    obliqueness_kappa,
    random_instance,
    spectral_gap_eta,
    three_form_deviation,
    unitary_completion,
)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def instance_set():
    """200 random instances, d_A = d_B in 2..6, Schmidt ranks 1..d."""
    rng = np.random.default_rng(20240817)
    out = []
    for k in range(200):
        d = 2 + k % 5
        out.append(random_instance(d, rng))
    return out


def test_criterion_01_completion_optimality(instance_set):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for inst in instance_set:
        w = canonical_w(inst)
        f = inst.fidelity()
        for _ in range(20):
            u = unitary_completion(w, rng=rng)
            worst = max(worst, abs(abs(states.overlap(inst.d, u, inst.c)) - f))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "completion optimality", ok, f"max |overlap - F| = {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_three_form_equivalence(instance_set):
    worst = max(three_form_deviation(inst) for inst in instance_set)
    ok = worst <= 1e-7
    report(2, "three-form equivalence", ok, f"max pairwise deviation = {worst:.3e}")
    assert worst <= 1e-7


def test_criterion_03_dual_certificate(instance_set):
    eps = 0.01
    worst_val, worst_margin = 0.0, 0.0
    for inst in instance_set:
        eta = spectral_gap_eta(inst)
        kappa = obliqueness_kappa(inst)
        cert = build_certificate(inst, eps, alpha=-kappa / eta)
        fr = inst.frame
        wr = fr.rotate_b_operator(canonical_w(inst))
        p_rho = np.trace(dagger(wr) @ wr @ fr.rho).real
        worst_val = max(worst_val, abs(cert.value - ((kappa / eta) * eps - p_rho)))
        worst_margin = min(worst_margin, cert.feasibility_margin)
        assert cert.feasible
    ok = worst_val <= 1e-8 and worst_margin >= -1e-8
    report(
        3, "dual certificate", ok,
        f"max value error = {worst_val:.3e}, min margin = {worst_margin:.3e}",
    )
    assert worst_val <= 1e-8
    assert worst_margin >= -1e-8


def test_criterion_04_psd_core(instance_set):
    worst = min(psd_core_check(inst) for inst in instance_set)
    ok = worst >= -1e-8
    report(4, "PSD core", ok, f"min eigenvalue = {worst:.3e}")
    assert worst >= -1e-8


def test_criterion_05_rigidity_bound():
    # Dedicated probe set (one instance per dimension, mixed ranks); the
    # 500-unitary probe per (instance, eps) keeps the full sweep tractable.
    rng = np.random.default_rng(5150)
    insts = [random_instance(d, rng) for d in (2, 3, 4, 5, 6)]
    insts.append(random_instance(5, rng, rank_c=2, rank_d=3))
    worst_excess = -np.inf
    for inst in insts:
        eta = spectral_gap_eta(inst)
        kappa = obliqueness_kappa(inst)
        for eps in (1e-4, 1e-3, 1e-2):
            bound = 2 * kappa * eps / eta
            # Walks on the block streams (5150, b), b < 8; best_residual is their max.
            probe = primal_probe(inst, eps, 500, 5150)
            worst_excess = max(worst_excess, probe.best_residual - bound)
    ok = worst_excess <= 1e-6
    report(5, "rigidity bound", ok, f"max residual - bound = {worst_excess:.3e}")
    assert worst_excess <= 1e-6


def test_criterion_06_eta_family_tightness():
    worst_rel, worst_rev = 0.0, 0.0
    for d in (4, 8):
        for eta in (0.2, 0.4):
            for tau in (0.25, 0.5):
                fam = build_eta_family(d, eta, tau)
                worst_rel = max(worst_rel, abs(fam.residual - fam.tau_effective) / fam.tau_effective)
                rev = eta_family_reverse_probe(fam, count=6, seed=60)
                worst_rev = max(worst_rev, rev - (2 * np.sqrt(2) * fam.epsilon + 1e-6))
    ok = worst_rel <= 0.05 and worst_rev <= 0.0
    report(
        6, "eta-family tightness", ok,
        f"max |residual/tau_eff - 1| = {worst_rel:.3e}, max reverse excess = {worst_rev:.3e}",
    )
    assert worst_rel <= 0.05
    assert worst_rev <= 0.0


def test_criterion_07_kappa_family():
    worst_short = np.inf
    kappa_max = 0.0
    grid = [
        (2, 0.05, 0.5),
        (3, 0.02, 0.2),
        (3, 0.01, 0.05),
        (4, 1e-3, 0.03),
        (4, 1e-5, 0.01),  # kappa close to 100
    ]
    for d, lam, weight in grid:
        rho, vec = kappa_rho(d, lam), kappa_vec(d, weight)
        kappa = (vec.conj() @ rho.mat @ rho.mat @ vec).real / (vec.conj() @ rho.mat @ vec).real ** 2
        kappa_max = max(kappa_max, kappa)
        for frac in (0.3, 0.7, 1.0):
            eps = frac * kappa**-0.5
            fam = build_kappa_family(d, rho, vec, eps)
            worst_short = min(worst_short, fam.residual - kappa * eps**2)
    ok = worst_short >= -1e-8 and kappa_max >= 90
    report(
        7, "kappa-family lower bound", ok,
        f"min residual - kappa eps^2 = {worst_short:.3e}, max kappa = {kappa_max:.1f}",
    )
    assert worst_short >= -1e-8
    assert kappa_max >= 90


def test_criterion_08_rounding():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    worst_gap, worst_ov = np.inf, np.inf
    for _ in range(100):
        d = int(rng.integers(2, 7))
        inst = random_instance(d, rng)
        target = float(rng.uniform(0.1, 0.6))
        rounded = round_spectral_gap(inst, eta_target=target)
        worst_gap = min(worst_gap, rounded.gap - target)
        worst_ov = min(
            worst_ov,
            rounded.overlap_c - (1 - target**2),
            rounded.overlap_d - (1 - target**2),
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap >= -1e-8 and worst_ov >= -1e-8 and elapsed < 5.0
    report(
        8, "spectral-gap rounding", ok,
        f"min gap slack = {worst_gap:.3e}, min overlap slack = {worst_ov:.3e}, {elapsed:.2f}s",
    )
    assert worst_gap >= -1e-8
    assert worst_ov >= -1e-8
    assert elapsed < 5.0


def test_criterion_09_protocol_completeness():
    start = time.perf_counter()
    inst = completeness_reference_instance(2)
    assert spectral_gap_eta(inst) == pytest.approx(1, abs=1e-10)
    assert obliqueness_kappa(inst) == pytest.approx(1, abs=1e-10)
    params = ProtocolParams.for_instance(inst, n=2, r=2)
    trials = 2000
    rate = completeness_experiment(inst, params, trials=trials, seed=909)
    sigma_hat = np.sqrt(max(rate * (1 - rate), 1e-9) / trials)
    floor = 1 - 2.0**-2 - 3 * sigma_hat
    elapsed = time.perf_counter() - start
    ok = rate >= floor and elapsed < 60.0
    report(
        9, "protocol completeness", ok,
        f"acceptance = {rate:.4f} vs floor {floor:.4f}, {elapsed:.2f}s",
    )
    assert rate >= floor
    assert elapsed < 60.0


def test_criterion_10_gowers_hatami_stability():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), FiniteGroup.symmetric3()]
    # worst deviation of each chain link: residual = defect, residual =
    # dilated distance, residual - distance = compression gap
    worst_links = [0.0, 0.0, 0.0]
    worst_bound, worst_param = -np.inf, 0.0
    max_defect, min_gap = 0.0, np.inf
    for group in groups:
        dim = 3 if group.order == 6 else group.order
        for _ in range(200):
            rep = perturbed_rep(group, dim, float(rng.uniform(0.02, 0.75)), rng)
            res = stability_check(rep)
            # R(g) and V from the public intertwiner, independent of the
            # quantities stability_check computes internally
            rep_mats, v = intertwiner(rep)
            dilated, gap = 0.0, 1.0
            for g in range(group.order):
                lifted = np.kron(np.eye(dim), rep_mats[g]) @ v
                diff = lifted - v @ rep.unitaries[g]
                m_g = dagger(v) @ lifted
                dilated += rep.mu[g] * np.trace(dagger(diff) @ diff @ rep.rho.mat).real
                gap -= rep.mu[g] * np.trace(dagger(m_g) @ m_g @ rep.rho.mat).real
            links = (
                res.uhlmann_residual - res.defect_epsilon,
                res.uhlmann_residual - dilated,
                res.uhlmann_residual - res.stability_distance - gap,
            )
            worst_links = [max(w, abs(x)) for w, x in zip(worst_links, links)]
            max_defect = max(max_defect, res.defect_epsilon)
            min_gap = min(min_gap, gap)
            worst_bound = max(worst_bound, res.stability_distance - res.defect_epsilon)
            worst_param = max(worst_param, abs(res.eta - 1), abs(res.kappa - 1))
    elapsed = time.perf_counter() - start
    chain_ok = max(worst_links) <= 1e-8
    bound_ok = worst_bound <= 1e-6
    param_ok = worst_param <= 1e-8
    ok = chain_ok and bound_ok and param_ok and elapsed < 120.0
    report(
        10, "group-representation stability", ok,
        f"residual - defect = {worst_links[0]:.3e}, "
        f"residual - dilated distance = {worst_links[1]:.3e}, "
        f"residual - distance - gap = {worst_links[2]:.3e} "
        f"({'ok' if chain_ok else 'VIOLATED'}), min gap = {min_gap:.3e}, "
        f"stability - defect = {worst_bound:.3e} ({'ok' if bound_ok else 'VIOLATED'}), "
        f"|eta-1|,|kappa-1| = {worst_param:.3e} ({'ok' if param_ok else 'VIOLATED'}), "
        f"max defect = {max_defect:.2f}, {elapsed:.2f}s",
    )
    assert bound_ok, f"stability bound violated by {worst_bound:.3e}"
    assert param_ok, f"eta/kappa deviates from 1 by {worst_param:.3e}"
    assert elapsed < 120.0
    # The identity chain: the residual is the defect and the dilated
    # distance; compressing by V costs exactly 1 - E_g Tr(M_g* M_g rho).
    names = ("residual = defect", "residual = dilated distance",
             "residual - distance = compression gap")
    for name, worst in zip(names, worst_links):
        assert worst <= 1e-8, f"identity-chain link {name} fails by {worst:.3e}"


def test_criterion_11_property_suites():
    rng = np.random.default_rng(1111)

    def rand(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    # Penrose conditions, 1000 randomized cases
    worst_penrose = 0.0
    for _ in range(1000):
        rows, cols = rng.integers(1, 8, size=2)
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = rand(rows, rank) @ rand(rank, cols)
        p = pseudoinverse(m)
        worst_penrose = max(
            worst_penrose,
            op_norm(m @ p @ m - m) / (1 + op_norm(m)),
            op_norm(p @ m @ p - p) / (1 + op_norm(p)),
            op_norm(m @ p - dagger(m @ p)),
            op_norm(p @ m - dagger(p @ m)),
        )

    # partial isometry property of the sign function, 1000 cases
    worst_sign = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        rank = int(rng.integers(1, d + 1))
        m = rand(d, rank) @ rand(rank, d)
        w = matrix_sign(m)
        worst_sign = max(worst_sign, op_norm(w @ dagger(w) @ w - w))

    # Schur criterion vs direct block eigenvalues, 1000 confident cases
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 4000:
        attempts += 1
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a_half = rand(n, int(rng.integers(1, n + 1)))
        c_half = rand(m, int(rng.integers(1, m + 1)))
        a = a_half @ dagger(a_half)
        c = c_half @ dagger(c_half)
        b = rand(n, m) * (0.25 if rng.random() < 0.5 else 1.0)
        block = np.block([[a, b], [dagger(b), c]])
        margin = np.linalg.eigvalsh((block + dagger(block)) / 2).min()
        if abs(margin) <= 1e-6:
            continue
        assert (schur_psd_margin(a, b, c) >= -1e-9) == (margin >= 0)
        checked += 1

    # arithmetic-geometric mean inequality for #, 1000 cases
    worst_amgm = -np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        a = rand(d, d)
        a = a @ dagger(a) + 0.02 * np.eye(d)
        b = rand(d, d)
        b = b @ dagger(b) + 0.02 * np.eye(d)
        gap = np.linalg.eigvalsh(geometric_mean(a, b) - (a + b) / 2).max()
        worst_amgm = max(worst_amgm, gap)

    ok = worst_penrose <= 1e-9 and worst_sign <= 1e-9 and checked >= 1000 and worst_amgm <= 1e-9
    report(
        11, "property suites", ok,
        f"penrose = {worst_penrose:.3e}, sign isometry = {worst_sign:.3e}, "
        f"schur agreements = {checked}, am-gm excess = {worst_amgm:.3e}",
    )
    assert worst_penrose <= 1e-9
    assert worst_sign <= 1e-9
    assert checked >= 1000
    assert worst_amgm <= 1e-9
