"""The spectral core: decomposition counts per entry point and golden values.

Every spectral quantity of an instance derives from the decompositions in
``UhlmannInstance.spectral_core``; these tests pin how many decompositions
the public entry points make and that the numbers match the values the
per-function implementation computed before the core existed.
"""

import contextlib
import gc
import io
import json
import sys
import weakref

import numpy as np
import pytest

from conftest import walk_instances
from uhlmann import adversarial, certificate, cli, matcore, protocol, states
from uhlmann.errors import NoConvergenceError
from uhlmann.matcore import dagger
from uhlmann.uhlmann import (
    UhlmannInstance,
    canonical_w,
    near_optimal_unitary,
    projector_structure_check,
    random_instance,
    rigidity_report,
    spectral_gap_eta,
    three_form_deviation,
)


@pytest.fixture
def loaded(tmp_path):
    inst = random_instance(6, np.random.default_rng(404), rank_c=3, rank_d=4)
    paths = [str(tmp_path / "c.json"), str(tmp_path / "d.json")]
    states.write_state(paths[0], inst.c)
    states.write_state(paths[1], inst.d)
    return paths


def _load(paths):
    return UhlmannInstance.from_states(states.read_state(paths[0]), states.read_state(paths[1]))


def test_rigidity_report_takes_four_decompositions(loaded, decompositions):
    rigidity_report(_load(loaded), 0.01)
    # the two grids' SVDs (taken when the report first reads the factors, not by from_states),
    # the SVD of B = sigma^1/2 rho^1/2, eigvalsh of the mean and one SVD for kappa
    assert decompositions == {"svd": 4, "eigvalsh": 1}


def test_canonical_subcommand_takes_one_svd(loaded, decompositions):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["canonical", "--c", loaded[0], "--d", loaded[1]]) == 0
    # sgn(Tr_A |D><C|) reads neither grid's factor
    assert decompositions == {"svd": 1}


def test_certificate_subcommand_decompositions(loaded, decompositions):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["certificate", "--c", loaded[0], "--d", loaded[1]]) == 0
    # two grid SVDs, B's, kappa's and T's SVD, eta's eigvalsh and schur_psd_margin's four
    assert sum(decompositions.values()) <= 10


def test_certificate_at_a_new_alpha_takes_one_svd_of_t(loaded, decompositions):
    inst = _load(loaded)
    core = inst.spectral_core()
    certificate.build_certificate(inst, 0.01, alpha=-core.kappa / core.eta)
    decompositions.clear()
    certificate.build_certificate(inst, 0.01, alpha=-1.5)
    # the SVD of T, and schur_psd_margin's pseudoinverse and three eigvalsh
    assert decompositions == {"svd": 2, "eigvalsh": 3}


def test_three_form_deviation_decompositions(loaded, decompositions):
    inst = _load(loaded)
    _ = inst.frame
    decompositions.clear()
    three_form_deviation(inst)
    assert sum(decompositions.values()) <= 6


def test_round_spectral_gap_decompositions(loaded, decompositions):
    inst = _load(loaded)
    _ = inst.frame
    decompositions.clear()
    adversarial.round_spectral_gap(inst, 0.3)
    assert sum(decompositions.values()) <= 11


def test_dual_bound_reuses_the_certificate(loaded, decompositions):
    inst = _load(loaded)
    core = inst.spectral_core()
    eta, kappa = core.eta, core.kappa
    cert = certificate.build_certificate(inst, 0.01, alpha=-kappa / eta)
    decompositions.clear()
    bound = certificate.dual_bound(inst, 0.01)
    assert decompositions == {}
    assert bound == pytest.approx(2 * kappa * 0.01 / eta, rel=1e-9)
    assert 2 * (cert.value + np.trace(core.p @ inst.frame.rho).real) == bound
    # everything psd_core_check needs is in the core but its own eigvalsh
    certificate.psd_core_check(inst)
    assert decompositions == {"eigvalsh": 1}


def test_a_passing_projector_structure_check_takes_two_svds(loaded, decompositions):
    inst = _load(loaded)
    _ = canonical_w(inst), inst.frame, inst.spectral_core().a
    decompositions.clear()
    assert projector_structure_check(inst)
    # the two image projectors; the two 1e-8 checks pass on their Frobenius screens
    assert decompositions == {"svd": 2}


def test_one_core_decides_each_factors_cut_once(loaded, monkeypatch):
    inst = _load(loaded)
    seen = []
    rule = matcore.rank_cut
    monkeypatch.setattr(matcore, "rank_cut", lambda values, *args: seen.append(values) or rule(values, *args))
    core = inst.spectral_core()
    _ = core.fidelity, core.eta, core.kappa
    certificate.build_certificate(inst, 0.01, alpha=-core.kappa / core.eta)
    certificate.psd_core_check(inst)
    # sqrt_rho, rho_pinv_sqrt and kappa's leak projector share one decision on rho's factor
    assert sum(v is inst.rho.factor.singulars for v in seen) == 1
    assert sum(v is inst.sigma.factor.singulars for v in seen) == 1


def _lapack_fails(monkeypatch, site=None):
    """Make numpy.linalg's eigvalsh, eigh and qr raise LinAlgError: every call, or only the calls
    the function named ``site`` makes (through ``matcore.lapack``, or directly)."""
    for name in ("eigvalsh", "eigh", "qr"):
        def failing(*args, _orig=getattr(np.linalg, name), **kwargs):
            caller = sys._getframe(1)
            caller = caller.f_back if caller.f_code is matcore.lapack.__code__ else caller
            if site is None or caller.f_code.co_name == site:
                raise np.linalg.LinAlgError("forced")
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, failing)


@pytest.mark.parametrize("site, call", [
    ("eta", lambda inst: spectral_gap_eta(inst)),
    ("psd_core_check", lambda inst: certificate.psd_core_check(inst)),
    ("_min_eig", lambda inst: matcore.schur_psd_margin(np.eye(2), np.zeros((2, 1)), np.eye(1))),
    ("_walk_blocks", lambda inst: near_optimal_unitary(inst, 0.01, np.random.default_rng(1))),
    ("_haar_unitaries", lambda inst: near_optimal_unitary(inst, 0.01, np.random.default_rng(1))),
    ("round_spectral_gap", lambda inst: adversarial.round_spectral_gap(inst, 0.3)),
    ("_haar_unitaries", lambda inst: protocol.random_prover(3, 1)),
], ids=["spectral_gap_eta", "psd_core_check", "schur_psd_margin", "walks_eigh", "walks_qr",
        "round_spectral_gap", "random_prover"])
def test_a_lapack_failure_raises_no_convergence(loaded, monkeypatch, site, call):
    inst = _load(loaded)  # ranks 3 and 4 at d = 6: W has a kernel to complete
    core = inst.spectral_core()
    if site != "eta":
        _ = core.eta, core.kappa, inst.frame
    _lapack_fails(monkeypatch, site)
    with pytest.raises(NoConvergenceError, match="forced"):
        call(inst)


def test_a_lapack_failure_exits_1_through_the_cli(loaded, monkeypatch):
    _lapack_fails(monkeypatch)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["report", "--c", loaded[0], "--d", loaded[1]]) == 1
    assert json.loads(err.getvalue())["error"] == "NoConvergenceError"


def test_primal_probe_decomposes_w_once(loaded, decompositions):
    certificate.primal_probe(_load(loaded), 0.01, 100, 3)
    # the two grids' SVDs, F's SVD of B and canonical_w's, whose dropped columns are the
    # completions' kernel and cokernel bases; one eigh of the walks' generators per compute
    # chunk (one at d = 6)
    assert decompositions["svd"] <= 4 and decompositions["eigh"] == 1
    # one QR of the stacked Haar gauges per compute chunk
    assert decompositions["qr"] == 1


def test_second_primal_probe_takes_no_svd(loaded, decompositions):
    inst = _load(loaded)
    certificate.primal_probe(inst, 0.01, 100, 3)
    decompositions.clear()
    certificate.primal_probe(inst, 0.01, 100, 3)
    # W and its completion basis are the core's; only the walks' eigh remain
    assert "svd" not in decompositions


def test_core_is_cached_per_rank_tol():
    inst = walk_instances()[3]
    assert inst.spectral_core() is inst.spectral_core(None)
    assert inst.spectral_core(1e-6) is inst.spectral_core(1e-6)
    assert inst.spectral_core(1e-6) is not inst.spectral_core()
    assert inst.fidelity() == inst.spectral_core().fidelity == states.fidelity(inst.rho, inst.sigma)


def test_canonical_w_is_cached_read_only_per_rank_tol():
    inst = walk_instances()[3]
    w = canonical_w(inst)
    assert w is canonical_w(inst) is inst.spectral_core().canonical_w
    assert not w.flags.writeable and not inst.spectral_core().completion.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 0.0
    assert canonical_w(inst, 1e-6) is canonical_w(inst, 1e-6)
    assert canonical_w(inst, 1e-6) is not w


def test_cached_completion_matches_unitary_completion():
    # the honest completion pairs completion_basis's kernel with its cokernel, no SVD of its own
    for inst in walk_instances():
        core = inst.spectral_core()
        u, (w, kernel, coker) = core.completion, core.completion_basis
        assert matcore.op_norm(dagger(u) @ u - np.eye(len(u))) <= 1e-12
        assert matcore.op_norm(u @ dagger(w) @ w - w) <= 1e-12
        assert matcore.op_norm(u @ kernel - coker) <= 1e-12
        assert not u.flags.writeable
        assert core.completion_basis is core.completion_basis


def _golden_cases():
    fams = [(f"eta{d}", adversarial.build_eta_family(d, eta, tau).instance, None)
            for d, eta, tau in [(4, 0.4, 0.5), (8, 0.2, 0.5), (16, 0.3, 0.7)]]
    def kappa(d, lam, weight, eps):
        rho, vec = adversarial.kappa_rho(d, lam), adversarial.kappa_vec(d, weight)
        return adversarial.build_kappa_family(d, rho, vec, eps)

    base, four, small = kappa(3, 0.02, 0.03, 0.1), kappa(4, 0.05, 0.2, 0.1), kappa(3, 1e-6, 0.5, 0.01)
    return (
        [(f"walk{k}", inst, None) for k, inst in enumerate(walk_instances())]
        + fams
        + [("kappa3", base.instance, None), ("kappa4", four.instance, None),
           ("boost3", adversarial.build_boosted_kappa(base).instance, None),
           ("walk3_tol", walk_instances()[3], 1e-6), ("kappa_small_tol", small.instance, 1e-2)]
    )


# (F, eta, kappa, delta_bound, value and margin at alpha = -kappa/eta, value and
# margin at alpha = -1.5, dual_bound, psd_core_check) at eps = 0.01, computed
# by the per-function implementation that rebuilt each spectral object itself.
# F and the two certificate values and dual_bound of "kappa_small_tol" take F
# at the given rank_tol, so that dual_bound = 2 kappa eps / eta = delta_bound
# holds and the report's F is the one its bounds use.  Its rank_tol cuts the
# grid's singular values 1e-3 (rho's eigenvalues 1e-6) at 1e-2, the cut that
# 1e-4 made on rho's eigenvalues before supports were decided on factors.
CORE_GOLDEN = {
    "walk0": (
        0.7491484696589364, 1.3348488857692917, 1.745380778423256, 0.02615098678255807,
        -0.9664730930199424, -2.4950406737792802e-31, -0.9645485864112215, -1.554454579197709e-17,
        0.026150986782556007, -1.3744261644092924e-17,
    ),
    "walk1": (
        0.7043049650942369, 0.6517548319880865, 1.0000000000000018, 0.030686385460300843,
        -0.9846568072698489, -5.213422731609151e-16, -0.9456727675836569, -7.01700617979028e-18,
        0.03068638546030167, 2.5079607681010127e-17,
    ),
    "walk2": (
        0.7376102052542832, 0.5270091362807798, 1.0000000000000009, 0.03795000622028006,
        -0.9810249968898425, -3.7719807616791394e-15, -0.744500746075246, -7.325732601159224e-16,
        0.03795000622031264, -7.608589436758528e-15,
    ),
    "walk3": (
        0.6839137108650055, 0.18583081642793553, 2.892714385196851, 0.31132773786404094,
        -0.8419582775768379, -4.512388165062559e-15, -0.5919219398043633, -7.71807767265425e-17,
        0.3113277378640278, 3.777835352115141e-16,
    ),
    "walk4": (
        0.4822563210159305, 1.6690699377587022, 1.4292309717087555, 0.017126076497764826,
        -0.4043948940135902, -2.307214769829689e-32, -0.397957932262473, -7.674883722990682e-17,
        0.017126076497764986, -1.4610042939552726e-16,
    ),
    "walk5": (
        0.48968673333083795, 0.40341576790569594, 1.0000000000000018, 0.049576644224465005,
        -0.9752116778877647, -7.676848224519913e-16, -0.41881423887314445, -8.18773517252804e-17,
        0.04957664422446961, -9.373948838289543e-18,
    ),
    "walk6": (
        0.9917484100222405, 0.8827736419441059, 1.0, 0.022655864481810537,
        -0.988672067759095, -2.3696922051963873e-16, -0.9850000000000002, -2.320843407390826e-17,
        0.022655864481810895, 5.169475958410885e-16,
    ),
    "eta4": (
        0.8782329983125268, 0.4, 1.0, 0.049999999999999996,
        -0.9749999999999999, -4.163336342344337e-17, -0.585, 0.0,
        0.050000000000000266, 0.0,
    ),
    "eta8": (
        0.8, 0.2, 1.0, 0.09999999999999999,
        -0.9499999999999997, -2.8089372685427893e-16, -0.28500000000000003, 0.0,
        0.10000000000000053, 2.7755575615628914e-17,
    ),
    "eta16": (
        0.8410137480542628, 0.30000000000000004, 1.0, 0.06666666666666665,
        -0.9666666666666663, -3.6276969295643525e-17, -0.4350000000000003, 0.0,
        0.06666666666666732, 0.0,
    ),
    "kappa3": (
        0.21954498400100142, 4.554875186742769, 12.067629689571447, 0.05298775134253949,
        -0.5551658753660733, -2.5836200796384573e-32, -0.06197520096566006, -4.7762458047377845e-18,
        0.05298775134254208, -5.039469940769088e-16,
    ),
    "kappa4": (
        0.45825756949558394, 2.182178902359924, 3.321995464852612, 0.030446591351974216,
        -0.6823957519430605, -1.7963096523198297e-32, -0.6621536608677042, -3.512035524200702e-19,
        0.03044659135197403, -2.2520549337653938e-17,
    ),
    "boost3": (
        0.6097724920005008, 0.9999999999999998, 12.067629689571463, 0.24135259379142932,
        -0.6701535786229567, -5.510190382727686e-16, -0.5234876004828296, -3.914976735613742e-18,
        0.2413525937914316, 0.0,
    ),
    "walk3_tol": (
        0.6839137108650055, 0.18583081642793553, 2.892714385196851, 0.31132773786404094,
        -0.8419582775768379, -4.512388165062559e-15, -0.5919219398043633, -7.71807767265425e-17,
        0.3113277378640278, 3.777835352115141e-16,
    ),
    "kappa_small_tol": (
        0.7071060740794128, 0.7071074882943894, 1.0, 0.028284242963176512,
        -0.985855878518411, -1.342164852369779e-31, -0.9849980000000007, -1.0677710939188613e-19,
        0.02828424296317844, -6.661338147750939e-16,
    ),
}


def test_core_matches_golden_values():
    eps = 0.01
    for name, inst, tol in _golden_cases():
        rep = rigidity_report(inst, eps, rank_tol=tol)
        cert = certificate.build_certificate(inst, eps, -rep.kappa / rep.eta, rank_tol=tol)
        other = certificate.build_certificate(inst, eps, -1.5, rank_tol=tol)
        got = (
            rep.fidelity, rep.eta, rep.kappa, rep.delta_bound,
            cert.value, cert.feasibility_margin, other.value, other.feasibility_margin,
            certificate.dual_bound(inst, eps, rank_tol=tol), certificate.psd_core_check(inst, rank_tol=tol),
        )
        np.testing.assert_allclose(got, CORE_GOLDEN[name], rtol=0, atol=1e-12, err_msg=name)
        assert cert.feasible and other.feasible


def test_polar_blocks_match_the_pseudoinverse_formulas():
    # Y1 = sqrt(T*T) and Y2 = T Y1^+ T*, as built before one SVD of T gave both
    for name, inst, tol in _golden_cases():
        core = inst.spectral_core(tol)
        for alpha in (-core.kappa / core.eta, -1.5):
            cert = certificate.build_certificate(inst, 0.01, alpha, rank_tol=tol)
            t = cert.t
            y1 = matcore.psd_sqrt(dagger(t) @ t, tol=1e-8, rank_tol=tol)
            y2 = t @ matcore.pseudoinverse(y1, rank_tol=tol) @ dagger(t)
            np.testing.assert_allclose(cert.y1, y1, rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(cert.y2, y2, rtol=0, atol=1e-12, err_msg=name)


# F and eta of random_instance(32, default_rng(7), rank_c=32, rank_d=32) from
# tools/oracle_values.py (mpmath, 40 digits, the float64 grids taken as exact).
FULL_RANK_ORACLE_32 = {"fidelity": 0.62302273667718587764, "eta": 0.0058835228430123621008}


@pytest.mark.parametrize("d", [32, 64, 128])
def test_full_rank_pairs(d):
    # at d = 32 rho's eigenvalues reach 2.6e-6 of the largest and h's 3.7e-12: cut
    # on the eigenvalues of Gram matrices, these pairs got kappa = 61.7 / 123.6 / 74.0
    inst = random_instance(d, np.random.default_rng(7), rank_c=d, rank_d=d)
    core = inst.spectral_core()
    assert abs(core.kappa - 1.0) <= 1e-10
    assert three_form_deviation(inst) <= 1e-7
    assert certificate.psd_core_check(inst) >= -1e-8
    if d == 32:
        assert core.fidelity == pytest.approx(FULL_RANK_ORACLE_32["fidelity"], rel=1e-9)
        assert core.eta == pytest.approx(FULL_RANK_ORACLE_32["eta"], rel=1e-9)


def test_bare_matrix_fidelity_of_the_full_rank_pair():
    # density matrices without a factor take their roots from eigendecompositions and then the same one
    # SVD of sigma^1/2 rho^1/2; a cut on the eigenvalues of h = rho^1/2 sigma rho^1/2 leaves F 3.1e-7 off
    inst = random_instance(32, np.random.default_rng(7), rank_c=32, rank_d=32)
    rho, sigma = states.DensityMatrix(inst.rho.mat), states.DensityMatrix(inst.sigma.mat)
    assert states.fidelity(rho, sigma) == pytest.approx(FULL_RANK_ORACLE_32["fidelity"], rel=1e-9)
    factored = states.fidelity(inst.rho, inst.sigma)
    for mixed in ((inst.rho, sigma), (rho, inst.sigma)):
        assert states.fidelity(*mixed) == pytest.approx(factored, rel=1e-12)


def test_a_deleted_instance_is_freed_without_the_cyclic_collector():
    inst = walk_instances()[3]
    for tol in (None, 1e-6):
        certificate.dual_bound(inst, 0.01, rank_tol=tol)
        certificate.psd_core_check(inst, rank_tol=tol)
    three_form_deviation(inst)
    ref = weakref.ref(inst)
    gc.disable()
    try:
        del inst
        assert ref() is None
    finally:
        gc.enable()
