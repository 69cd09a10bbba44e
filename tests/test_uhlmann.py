import hashlib
import itertools

import numpy as np
import pytest

from conftest import random_psd, random_unitary, walk_instances
from uhlmann import certificate, matcore, states, uhlmann
from uhlmann.errors import (
    DimensionMismatchError,
    FrameMismatchError,
    NotNormalizedError,
    NotPartialIsometryError,
    NotPsdError,
    NotUnitaryError,
)
from uhlmann.matcore import dagger
from uhlmann.states import BipartitePureState
from uhlmann.uhlmann import (
    UhlmannInstance,
    canonical_w,
    flip,
    geometric_mean,
    near_optimal_unitary,
    obliqueness_kappa,
    projector_structure_check,
    random_instance,
    rigidity_report,
    rigidity_residual,
    spectral_gap_eta,
    three_form_deviation,
    unitary_completion,
)


def diagonal_instance(rho_diag, sigma_diag):
    mc = np.diag(np.sqrt(np.asarray(rho_diag, float))).astype(complex)
    md = np.diag(np.sqrt(np.asarray(sigma_diag, float))).astype(complex)
    return UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))


# -- canonical transformation -------------------------------------------------


def test_canonical_w_identity_for_equal_states(rng):
    inst = random_instance(4, rng, rank_c=4, rank_d=4)
    same = UhlmannInstance.from_states(inst.c, inst.c)
    np.testing.assert_allclose(canonical_w(same), np.eye(4), atol=1e-9)


def test_canonical_w_qutrit_swap():
    eps = 0.2
    big, small = np.sqrt(1 - eps), np.sqrt(eps / 2)
    c_swap = BipartitePureState(
        np.array([[big, 0, 0], [0, 0, small], [0, small, 0]], dtype=complex)
    )
    d = BipartitePureState(np.diag([big, small, small]).astype(complex))
    w = canonical_w(UhlmannInstance.from_states(c_swap, d))
    np.testing.assert_allclose(
        w, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex), atol=1e-12
    )


def test_canonical_w_achieves_fidelity(rng):
    for _ in range(20):
        inst = random_instance(4, rng)
        w = canonical_w(inst)
        ov = states.overlap(inst.d, w, inst.c)
        assert ov.imag == pytest.approx(0, abs=1e-9)
        assert ov.real == pytest.approx(inst.fidelity(), abs=1e-9)


def test_three_forms_agree(rng):
    worst = max(three_form_deviation(random_instance(int(rng.integers(2, 7)), rng)) for _ in range(50))
    assert worst <= 1e-7


def test_frame_accepts_a_grid_normalized_within_norm_tol():
    # from_states keeps a grid whose norm is within NORM_TOL of 1 unscaled; the frame's roots
    # rebuild the grid over its norm, so the frame check holds at its 1e-7
    base = random_instance(3, np.random.default_rng(1))
    for scale in (1 + 5e-7, 1 - 5e-7):
        inst = UhlmannInstance.from_states(BipartitePureState(base.c.coeffs * scale), base.d)
        assert inst.fidelity() == pytest.approx(0.894, abs=1e-3)
        assert three_form_deviation(inst) <= 1e-7
    # a grid 1e-6 off the one its reduced matrix was taken from does not reconstruct
    off = base.c.coeffs.copy()
    off[0, 0] += 1e-6
    bad = UhlmannInstance(c=BipartitePureState(off), d=base.d, rho=base.rho, sigma=base.sigma)
    with pytest.raises(FrameMismatchError, match="frame does not reconstruct the state"):
        three_form_deviation(bad)


# -- geometric mean -----------------------------------------------------------


def test_geometric_mean_commuting():
    np.testing.assert_allclose(
        geometric_mean(np.diag([1.0, 4.0]), np.diag([9.0, 1.0])),
        np.diag([3.0, 2.0]),
        atol=1e-12,
    )


def test_geometric_mean_idempotent(rng):
    a = random_psd(rng, 4)
    np.testing.assert_allclose(geometric_mean(a, a), a, atol=1e-9)


def test_geometric_mean_defining_equation(rng):
    for _ in range(10):
        a = random_psd(rng, 4) + 0.1 * np.eye(4)
        b = random_psd(rng, 4) + 0.1 * np.eye(4)
        x = geometric_mean(a, b)
        np.testing.assert_allclose(x @ np.linalg.inv(a) @ x, b, atol=1e-8)


def test_geometric_mean_am_gm(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        a = random_psd(rng, d) + 0.05 * np.eye(d)
        b = random_psd(rng, d) + 0.05 * np.eye(d)
        gap = np.linalg.eigvalsh(geometric_mean(a, b) - (a + b) / 2).max()
        assert gap <= 1e-9


def test_geometric_mean_rejects_nonpsd():
    with pytest.raises(NotPsdError):
        geometric_mean(np.diag([1.0, -1.0]), np.eye(2))


# -- eta and kappa ------------------------------------------------------------


def test_eta_maximally_mixed():
    inst = diagonal_instance([0.25] * 4, [0.25] * 4)
    assert spectral_gap_eta(inst) == pytest.approx(1, abs=1e-12)


def test_eta_diagonal_family():
    # sigma has weights 2(1-delta)/d and 2 delta/d; the gap is sqrt(2 delta)
    d, delta = 4, 0.08
    sigma = [2 * (1 - delta) / d] * 2 + [2 * delta / d] * 2
    inst = diagonal_instance([1 / d] * d, sigma)
    assert spectral_gap_eta(inst) == pytest.approx(np.sqrt(2 * delta), abs=1e-12)


def test_eta_matches_assembled_mean(rng):
    inst = random_instance(5, rng, rank_c=5, rank_d=5)
    rho, sigma = inst.rho.mat, inst.sigma.mat
    rr = matcore.psd_sqrt(rho)
    rir = matcore.psd_function(matcore.psd_eigen(rho), matcore.inv_sqrt)
    mean = rir @ matcore.psd_sqrt(rr @ sigma @ rr) @ rir
    eigs = np.linalg.eigvalsh(mean)
    assert spectral_gap_eta(inst) == pytest.approx(eigs[eigs > 1e-9].min(), abs=1e-9)


def test_kappa_commuting_and_invertible(rng):
    inst = diagonal_instance([0.5, 0.3, 0.2], [0.1, 0.2, 0.7])
    assert obliqueness_kappa(inst) == pytest.approx(1, abs=1e-9)
    inst2 = random_instance(4, rng, rank_c=4, rank_d=4)
    assert obliqueness_kappa(inst2) == pytest.approx(1, abs=1e-8)


def test_kappa_pure_sigma_formula(rng):
    # invertible rho, pure sigma: kappa = <s|rho^2|s> / <s|rho|s>^2
    diag = np.array([0.7, 0.2, 0.1])
    sv = np.array([np.sqrt(0.2), np.sqrt(0.5), np.sqrt(0.3)], dtype=complex)
    mc = np.diag(np.sqrt(diag)).astype(complex)
    md = np.outer(sv.conj(), sv)
    inst = UhlmannInstance.from_states(BipartitePureState(mc.T), BipartitePureState(md))
    rho = np.diag(diag)
    expected = (sv.conj() @ rho @ rho @ sv).real / (sv.conj() @ rho @ sv).real ** 2
    assert obliqueness_kappa(inst) == pytest.approx(expected, abs=1e-9)


def test_projector_structure(rng):
    inst = random_instance(4, rng, rank_c=4, rank_d=4)
    assert projector_structure_check(inst)
    low = random_instance(5, rng, rank_c=3, rank_d=2)
    w = canonical_w(low)
    assert projector_structure_check(low)
    rank = int(np.round(np.trace(dagger(w) @ w).real))
    assert rank == np.linalg.matrix_rank(states.partial_trace_a_outer(low.d, low.c), tol=1e-10)


# -- completions --------------------------------------------------------------


def test_unitary_completion_of_unitary(rng):
    u = random_unitary(rng, 4)
    np.testing.assert_allclose(unitary_completion(u), u, atol=1e-12)


def test_unitary_completion_rank_one():
    w = np.diag([1.0, 0.0]).astype(complex)
    u = unitary_completion(w)
    assert u[0, 0] == pytest.approx(1)
    np.testing.assert_allclose(dagger(u) @ u, np.eye(2), atol=1e-12)


def test_unitary_completion_rejects_non_isometry():
    with pytest.raises(NotPartialIsometryError):
        unitary_completion(np.diag([0.5, 1.0]).astype(complex))


def test_completions_all_achieve_fidelity(rng):
    inst = random_instance(5, rng, rank_c=3, rank_d=4)
    w = canonical_w(inst)
    f = inst.fidelity()
    for _ in range(20):
        u = unitary_completion(w, rng=rng)
        np.testing.assert_allclose(u @ dagger(w) @ w, w, atol=1e-8)
        assert states.overlap(inst.d, u, inst.c).real == pytest.approx(f, abs=1e-9)


# -- rigidity -----------------------------------------------------------------


def test_residual_zero_for_completions(rng):
    inst = random_instance(4, rng)
    w = canonical_w(inst)
    for _ in range(5):
        assert rigidity_residual(inst, unitary_completion(w, rng=rng)) <= 1e-9


def test_residual_matches_bruteforce(rng):
    inst = random_instance(3, rng)
    w = canonical_w(inst)
    r = random_unitary(rng, 3)
    p = dagger(w) @ w
    op = (w - r) @ p
    moved = np.zeros_like(inst.c.coeffs)
    for i in range(3):
        for j in range(3):
            for jp in range(3):
                moved[i, j] += op[j, jp] * inst.c.coeffs[i, jp]
    assert rigidity_residual(inst, r) == pytest.approx(np.linalg.norm(moved) ** 2, abs=1e-12)


def test_residual_requires_unitary(rng):
    inst = random_instance(3, rng)
    with pytest.raises(NotUnitaryError):
        rigidity_residual(inst, 0.5 * np.eye(3))


def test_residual_unitarity_check_at_its_tolerance(rng):
    # (1 + s) U has ||R*R - 1|| = 2s + s^2 against the 1e-8 tolerance
    inst = random_instance(3, rng)
    u = random_unitary(rng, 3)
    with pytest.raises(NotUnitaryError):
        rigidity_residual(inst, (1 + 6e-9) * u)
    assert rigidity_residual(inst, (1 + 4e-9) * u) >= 0.0


def test_stacked_residuals_match_single_residuals():
    for k, inst in enumerate(walk_instances()):
        gens = [np.random.default_rng((k, i)) for i in range(70)]
        ((rs, _),) = uhlmann._walk_blocks(inst, 1e-2, [(gens, 1, 70)], None)
        assert uhlmann._rigidity_residuals(inst, rs) == [rigidity_residual(inst, r) for r in rs]
        rs[37] *= 1 + 6e-9
        with pytest.raises(NotUnitaryError):
            uhlmann._rigidity_residuals(inst, rs)


@pytest.mark.parametrize("scale,fails", [(1 + 6e-9, True), (1 + 4e-9, False), (1.001, True)])
def test_walks_check_every_completion(scale, fails, monkeypatch):
    # Scaling the kernel basis by (1 + s) gives every completion ||U*U - 1|| = 2s + s^2;
    # at s = 4e-9 the Frobenius norm (3-dim kernel) still exceeds 1e-8, so the exact norm decides.
    inst = walk_instances()[5]
    core = inst.spectral_core()
    w, kernel, coker = core.completion_basis
    monkeypatch.setattr(core, "completion_basis", (w, scale * kernel, coker))
    for run in (lambda: certificate.primal_probe(inst, 0.01, 100, 3),
                lambda: near_optimal_unitary(inst, 0.01, np.random.default_rng(0))):
        if fails:
            with pytest.raises(NotPartialIsometryError, match="completion failed the unitarity check"):
                run()
        else:
            run()


def test_walks_check_each_completion_of_a_block(monkeypatch):
    haar = uhlmann._haar_unitaries

    def gauge_37_off(z):  # the 38th gauge of a block is 1.001 times a unitary
        gauges = haar(z)
        if gauges.ndim == 3 and len(gauges) > 37:
            gauges[37] *= 1.001
        return gauges

    monkeypatch.setattr(uhlmann, "_haar_unitaries", gauge_37_off)
    inst = walk_instances()[5]
    certificate.primal_probe(inst, 0.01, 37, 3)
    with pytest.raises(NotPartialIsometryError, match="completion failed the unitarity check"):
        certificate.primal_probe(inst, 0.01, 38, 3)


def test_walks_take_one_qr_per_chunk(decompositions):
    deficient = walk_instances()[5]  # a 3-dimensional kernel to complete
    full = random_instance(4, np.random.default_rng(4040), rank_c=4, rank_d=4)
    wide = random_instance(32, np.random.default_rng(32), rank_c=16, rank_d=29)
    assert full.spectral_core().completion_basis[1].shape[1] == 0
    # up to 4096 walks per chunk at d <= 8, 256 at d = 32
    cases = [(deficient, trials, 1) for trials in (1, 64, 65, 100, 130, 4096)]
    cases += [(deficient, 4097, 2), (wide, 256, 1), (wide, 257, 2)]
    cases += [(full, trials, 0) for trials in (1, 130)]  # a full-rank W draws no gauge
    for inst, trials, qrs in cases:
        decompositions.clear()
        certificate.primal_probe(inst, 0.01, trials, 3)
        assert decompositions.get("qr", 0) == qrs


def test_rigidity_report_examples(rng):
    inst = random_instance(3, rng, rank_c=3, rank_d=3)
    same = UhlmannInstance.from_states(inst.c, inst.c)
    rep = rigidity_report(same, 0.01)
    assert rep.delta_bound == pytest.approx(0.02, abs=1e-9)
    assert rep.weak_bound == pytest.approx(0.8, abs=1e-9)
    assert rigidity_report(same, 0.0).delta_bound == 0


def test_robust_rigidity_bound_random(rng):
    for _ in range(5):
        inst = random_instance(4, rng)
        rep = rigidity_report(inst, 1e-2)
        for _ in range(20):
            r, ov = near_optimal_unitary(inst, 1e-2, rng)
            assert ov >= rep.fidelity - 1e-2 - 1e-9
            assert rigidity_residual(inst, r) <= rep.delta_bound + 1e-6


def test_batched_walks_match_single_walks():
    # One stack of 70 walks, one per generator: more walks than one block of the probe.
    n = 70
    for k, inst in enumerate(walk_instances()):
        f = inst.fidelity()
        for eps in (1e-4, 1e-2):
            gens = [np.random.default_rng((k, i)) for i in range(n)]
            ((rs, overlaps),) = uhlmann._walk_blocks(inst, eps, [(gens, 1, n)], None)
            batch = list(zip(rs, overlaps))
            assert len(batch) == n
            for i, (r, ov) in enumerate(batch):
                r1, ov1 = near_optimal_unitary(inst, eps, np.random.default_rng((k, i)))
                np.testing.assert_allclose(r, r1, rtol=0, atol=1e-12)
                assert ov == pytest.approx(ov1, abs=1e-12)
                assert f - eps - 1e-12 <= ov <= f + 1e-12
                assert ov == states.overlap(inst.d, r, inst.c).real


# near_optimal_unitary(inst, eps, default_rng(seed)): (overlap as float.hex, sha256 prefix of
# R's bytes), captured when each walk drew from its generator one value at a time.  A
# caller-supplied generator drives one walk, so the same draws give the same bits.  The walk
# instances are completed on the kernel and cokernel bases of unitary_completion, the ones
# those walks used; the full-rank pair has no kernel to complete.
WALK_PINS = [
    ("0x1.7cafaeac123c6p-1", "891fbd7809a89698"), ("0x1.6443e6ceca490p-1", "4fbd03c3be864165"),
    ("0x1.74946640d4a0cp-1", "a93dd26a92e35c38"), ("0x1.5a2707ae3c841p-1", "19df792fecc2fab0"),
    ("0x1.eaab384f09324p-2", "9f2de349b0b4b1d6"), ("0x1.ef1eea0c704a6p-2", "4729a28d0f86d3fb"),
    ("0x1.fa377353b5d01p-1", "f6bf77618a915065"),
]
FULL_RANK_WALK_PINS = [
    ((1e-2, (61, 0), None), ("0x1.8041e175027fdp-1", "d3edfbf2acc007ca")),
    ((1e-2, (61, 1), None), ("0x1.7ecbd3ead0c5ap-1", "f3bed27a6d0cd2e3")),
    ((1e-3, 62, 1.0), ("0x1.829f83bc69e74p-1", "275551a6a0b5d90d")),
]


def _walk_pin(inst, eps, seed, fraction=None):
    r, ov = near_optimal_unitary(inst, eps, np.random.default_rng(seed), deficit_fraction=fraction)
    return ov.hex(), hashlib.sha256(r.tobytes()).hexdigest()[:16]


def test_caller_generator_drives_one_walk_bit_for_bit():
    for k, (inst, pin) in enumerate(zip(walk_instances(), WALK_PINS)):
        core = inst.spectral_core()
        f = matcore.svd(core.canonical_w)  # the bases unitary_completion takes from W
        cut = f.singulars < 0.5
        core.completion_basis = (core.canonical_w, f.v[:, cut], f.u[:, cut])
        assert _walk_pin(inst, 1e-2, (61, k)) == pin
    full = random_instance(4, np.random.default_rng(4040), rank_c=4, rank_d=4)
    for args, pin in FULL_RANK_WALK_PINS:
        assert _walk_pin(full, *args) == pin


def test_fixed_deficit_walk_lands_on_target():
    inst = walk_instances()[3]
    f = inst.fidelity()
    for i in range(5):
        _, ov = near_optimal_unitary(inst, 1e-3, np.random.default_rng(i), deficit_fraction=1.0)
        assert f - 1e-3 - 1e-12 <= ov <= f - 1e-3 + 1e-9


def test_cached_fidelity_is_the_states_fidelity():
    for inst in walk_instances():
        assert inst.fidelity() == states.fidelity(inst.rho, inst.sigma)
        assert inst.fidelity() == inst.fidelity()


def test_flip_swaps_roles(rng):
    inst = random_instance(4, rng)
    rev = flip(inst)
    w = canonical_w(inst)
    np.testing.assert_allclose(canonical_w(rev), dagger(w), atol=1e-9)


def test_orthogonal_supports_raise_zero_fidelity():
    from uhlmann.errors import ZeroFidelityError

    c = BipartitePureState(np.array([[1.0, 0], [0, 0]], dtype=complex))
    d = BipartitePureState(np.array([[0, 0], [0, 1.0]], dtype=complex))
    inst = UhlmannInstance.from_states(c, d)
    with pytest.raises(ZeroFidelityError):
        spectral_gap_eta(inst)
    with pytest.raises(ZeroFidelityError):
        obliqueness_kappa(inst)


# -- the stacked spectral core ------------------------------------------------


def _stacked(insts) -> UhlmannInstance:
    """One instance stacking the pairs of same-shape instances."""
    c, d = (BipartitePureState(np.stack([getattr(i, side).coeffs for i in insts])) for side in "cd")
    return UhlmannInstance.from_states(c, d)


def _bits(core, k=None) -> bytes:
    """eta, kappa and F of a core (of row k of a stacked one) as bytes."""
    return np.array([v if k is None else v[k] for v in (core.eta, core.kappa, core.fidelity)]).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_core_rows_match_their_stacks_of_one(d):
    # every pair of Schmidt ranks, four random instances each: a stack's rows share their cuts
    rng = np.random.default_rng(600 + d)
    for rank_c, rank_d in itertools.product(range(1, d + 1), repeat=2):
        insts = [random_instance(d, rng, rank_c, rank_d) for _ in range(4)]
        core = _stacked(insts).spectral_core()
        assert core.eta.shape == core.kappa.shape == core.fidelity.shape == (4,)
        for k, inst in enumerate(insts):
            assert _bits(core, k) == _bits(_stacked([inst]).spectral_core(), 0) == _bits(inst.spectral_core())
            assert core.projector[k].tobytes() == inst.spectral_core().projector.tobytes()
            assert core.mean[k].tobytes() == inst.spectral_core().mean.tobytes()


def test_a_ragged_cut_raises_and_each_row_keeps_its_bits():
    rng = np.random.default_rng(61)
    insts = [random_instance(4, rng, rank_c, 3) for rank_c in (2, 3, 2)]
    core = _stacked(insts).spectral_core()
    with pytest.raises(DimensionMismatchError, match=r"keep \[2, 3\] singular values"):
        core.eta
    for inst in insts:
        assert _bits(_stacked([inst]).spectral_core(), 0) == _bits(inst.spectral_core())


def test_a_stack_names_its_failing_row():
    rng = np.random.default_rng(62)
    grids = np.stack([random_instance(3, rng, 3, 3).c.coeffs for _ in range(3)])
    grids[1] *= 1.01
    with pytest.raises(NotNormalizedError, match=r"^row 1: state norm 1\.0099\d* deviates"):
        BipartitePureState(grids)
    with pytest.raises(NotNormalizedError, match=r"^state norm 1\.0099\d* deviates"):  # one grid: no row to name
        BipartitePureState(grids[1])
