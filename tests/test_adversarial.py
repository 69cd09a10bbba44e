import numpy as np
import pytest

from uhlmann import adversarial, states
from uhlmann.adversarial import (
    build_boosted_kappa,
    build_eta_family,
    build_kappa_family,
    eta_family_reverse_probe,
    kappa_rho,
    kappa_vec,
    qutrit_sensitivity,
    round_spectral_gap,
)
from uhlmann.certificate import dual_bound
from uhlmann.errors import BadParamsError, ConsistencyError, EpsilonTooLargeError
from uhlmann.states import DensityMatrix
from uhlmann.uhlmann import canonical_w, obliqueness_kappa, random_instance, spectral_gap_eta


# -- qutrit sensitivity -------------------------------------------------------


def test_qutrit_sensitivity_norms():
    for eps in (0.3, 0.05, 1e-3):
        sens = qutrit_sensitivity(eps)
        assert sens.w_distance == pytest.approx(2.0, abs=1e-9)
        assert sens.state_distance == pytest.approx(np.sqrt(2 * eps), abs=1e-12)
        # measured distance exceeds eps: the claimed O(eps) closeness is O(sqrt(eps))
        assert sens.state_distance > eps


def test_qutrit_sensitivity_degenerates_smoothly():
    # as eps -> 0 the two C-states coincide even though the Ws stay far apart
    sens = qutrit_sensitivity(1e-8)
    assert sens.state_distance <= 2e-4
    assert sens.w_distance == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("which", [0, 1])
def test_qutrit_sensitivity_raises_a_typed_error_on_a_wrong_map(which, monkeypatch):
    # the exact pair's W (call 0) or the perturbed pair's (call 1) comes back wrong
    calls, true_w = [], adversarial.uhlmann.canonical_w

    def wrong(inst, rank_tol=None):
        calls.append(inst)
        w = true_w(inst, rank_tol)
        return -w if len(calls) - 1 == which else w

    monkeypatch.setattr(adversarial.uhlmann, "canonical_w", wrong)
    with pytest.raises(ConsistencyError, match="not the identity and the 1-2 swap"):
        qutrit_sensitivity(0.05)


# -- spectral-gap family ------------------------------------------------------


def test_eta_family_reference_numbers():
    fam = build_eta_family(4, eta=0.4, tau=0.5)
    assert fam.delta == pytest.approx(0.08)
    assert fam.instance.fidelity() == pytest.approx(np.sqrt(0.46) + np.sqrt(0.04), abs=1e-12)
    assert spectral_gap_eta(fam.instance) == pytest.approx(0.4, abs=1e-12)
    assert obliqueness_kappa(fam.instance) == pytest.approx(1, abs=1e-9)
    # |G| = max(2, ceil(tau d/2)) = 2 here, so tau_effective = 1
    assert fam.group_size == 2
    assert fam.tau_effective == pytest.approx(1.0)
    assert fam.epsilon == pytest.approx(fam.tau_effective * np.sqrt(fam.delta / 2), abs=1e-15)
    assert fam.residual == pytest.approx(2 * fam.group_size / fam.d, abs=1e-12)


def test_eta_family_saturates_bound():
    for d, eta, tau in [(8, 0.2, 0.5), (8, 0.4, 0.25), (16, 0.3, 0.7)]:
        fam = build_eta_family(d, eta, tau)
        assert fam.residual == pytest.approx(fam.bound, abs=1e-9)
        assert fam.residual == pytest.approx(fam.tau_effective, rel=1e-9)
        assert fam.residual >= 2 * fam.epsilon / fam.eta - 1e-9
        ov = states.overlap(fam.instance.d, fam.adversary_r, fam.instance.c).real
        assert ov == pytest.approx(fam.instance.fidelity() - fam.epsilon, abs=1e-12)


def test_eta_family_reverse_direction_is_robust():
    fam = build_eta_family(8, eta=0.2, tau=0.5)
    worst = eta_family_reverse_probe(fam, count=6, seed=2)
    assert worst <= 2 * np.sqrt(2) * fam.epsilon + 1e-6


def test_eta_family_rejects_bad_params():
    with pytest.raises(BadParamsError):
        build_eta_family(5, 0.4, 0.5)
    with pytest.raises(BadParamsError):
        build_eta_family(4, 1.2, 0.5)


# -- obliqueness family -------------------------------------------------------


def test_kappa_family_formulas():
    d, lam, w = 3, 0.02, 0.03
    rho, vec = kappa_rho(d, lam), kappa_vec(d, w)
    diag = np.diag(rho.mat).real
    s_rho_s = w * diag[0] + (1 - w) * diag[1]
    s_rho2_s = w * diag[0] ** 2 + (1 - w) * diag[1] ** 2
    eps = 0.5 * (s_rho2_s / s_rho_s**2) ** -0.5
    fam = build_kappa_family(d, rho, vec, eps)
    assert fam.kappa == pytest.approx(s_rho2_s / s_rho_s**2, rel=1e-12)
    assert fam.eta == pytest.approx(1 / np.sqrt(s_rho_s), rel=1e-12)
    assert fam.fidelity == pytest.approx(np.sqrt(s_rho_s), rel=1e-12)
    assert fam.residual >= fam.kappa * fam.epsilon**2 - 1e-8
    assert fam.residual <= dual_bound(fam.instance, fam.epsilon) + 1e-6
    # pure target: the W-domain is the single ray rho^1/2 |sigma>
    w = canonical_w(fam.instance)
    assert np.trace(w.conj().T @ w).real == pytest.approx(1, abs=1e-10)


def test_kappa_family_identity_rho():
    d = 3
    rho = DensityMatrix(np.eye(d, dtype=complex) / d)
    vec = np.ones(d, dtype=complex) / np.sqrt(d)
    fam = build_kappa_family(d, rho, vec, 0.2)
    assert fam.kappa == pytest.approx(1, abs=1e-12)
    assert fam.residual >= fam.epsilon**2 - 1e-8


def test_kappa_family_complex_sigma(rng):
    d = 4
    rho = kappa_rho(d, 0.05)
    vec = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)) * rng.uniform(0.2, 1, size=d)
    vec /= np.linalg.norm(vec)
    fam = build_kappa_family(d, rho, vec, 0.5 * fam_kappa(rho, vec) ** -0.5)
    assert fam.residual >= fam.kappa * fam.epsilon**2 - 1e-8


def fam_kappa(rho, vec):
    num = (vec.conj() @ rho.mat @ rho.mat @ vec).real
    den = (vec.conj() @ rho.mat @ vec).real ** 2
    return num / den


def test_kappa_family_epsilon_guard():
    rho, vec = kappa_rho(3, 0.02), kappa_vec(3, 0.03)
    with pytest.raises(EpsilonTooLargeError):
        build_kappa_family(3, rho, vec, 10.0)


# -- boosted variant ----------------------------------------------------------


def test_boosted_kappa_preserves_obliqueness():
    rho, vec = kappa_rho(3, 0.01), kappa_vec(3, 0.02)
    base = build_kappa_family(3, rho, vec, 0.1)
    boosted = build_boosted_kappa(base)
    assert boosted.fidelity >= 0.5 - 1e-9
    assert boosted.fidelity == pytest.approx((1 + base.fidelity) / 2, abs=1e-9)
    assert boosted.eta >= 1 - 1e-6
    assert boosted.kappa == pytest.approx(base.kappa, rel=1e-6)


def test_boosted_kappa_can_be_large():
    # near the limit lam << weight, kappa approaches 1/F^2 from below
    lam, w = 1e-5, 0.01
    rho, vec = kappa_rho(3, lam), kappa_vec(3, w)
    base = build_kappa_family(3, rho, vec, 0.5 * fam_kappa(rho, vec) ** -0.5)
    boosted = build_boosted_kappa(base)
    assert boosted.kappa > 90
    assert boosted.kappa * base.fidelity**2 > 0.99


@pytest.mark.xfail(
    strict=True,
    reason="kappa of the boosted pair equals the base kappa = "
    "<s|rho^2|s>/<s|rho|s>^2, which is strictly below 1/F_base^2 for any "
    "invertible rho (rho^2 < rho); the claimed lower bound is only attained "
    "in the limit of {0,1}-concentrated spectra.",
)
def test_boosted_kappa_claimed_inverse_square_bound():
    rho, vec = kappa_rho(3, 0.02), kappa_vec(3, 0.03)
    base = build_kappa_family(3, rho, vec, 0.1)
    boosted = build_boosted_kappa(base)
    assert boosted.kappa >= 1 / base.fidelity**2 - 1e-6


# -- gap rounding -------------------------------------------------------------


def test_rounding_trivial_when_gap_already_large():
    fam = build_eta_family(4, eta=0.6, tau=0.5)
    rounded = round_spectral_gap(fam.instance, eta_target=0.3, mix_delta=1e-6)
    assert rounded.gap >= 0.3 - 1e-8
    assert rounded.overlap_c >= 1 - 1e-5
    assert rounded.overlap_d >= 1 - 1e-5
    assert rounded.beta >= 1 - 1e-12


def test_rounding_lifts_small_gap():
    fam = build_eta_family(8, eta=0.05, tau=0.5)
    target = 0.4
    rounded = round_spectral_gap(fam.instance, eta_target=target)
    assert spectral_gap_eta(rounded.rounded) >= target - 1e-8
    assert rounded.overlap_c >= 1 - target**2 - 1e-8
    assert rounded.overlap_d >= 1 - target**2 - 1e-8


def test_rounding_random_instances(rng):
    for _ in range(25):
        d = int(rng.integers(2, 7))
        inst = random_instance(d, rng)
        target = float(rng.uniform(0.1, 0.6))
        rounded = round_spectral_gap(inst, eta_target=target)
        assert rounded.gap >= target - 1e-8
        assert rounded.overlap_c >= 1 - target**2 - 1e-8
        assert rounded.overlap_d >= 1 - target**2 - 1e-8
        assert rounded.rounded.c.norm() == pytest.approx(1, abs=1e-10)
        assert rounded.rounded.d.norm() == pytest.approx(1, abs=1e-10)


def test_rounding_rejects_out_of_range_targets():
    # eta_target < 1 always leaves the projection nonempty (its sigma weight
    # is at least 1 - eta_target^2 > 0), so only the range check can fire
    fam = build_eta_family(4, eta=0.05, tau=0.5)
    with pytest.raises(BadParamsError):
        round_spectral_gap(fam.instance, eta_target=1.5)
    with pytest.raises(BadParamsError):
        round_spectral_gap(fam.instance, eta_target=0.3, mix_delta=2.0)


@pytest.mark.parametrize("d", [1, 0, -1])
def test_kappa_rho_rejects_d_below_two(d):
    with pytest.raises(BadParamsError, match=r"^d must be >= 2$"):
        kappa_rho(d, 0.02)


@pytest.mark.parametrize("lam", [-0.1, 0.34, np.nan, np.inf, -np.inf])
def test_kappa_rho_rejects_lam_outside_unit_range(lam):
    # d = 4: rho's heavy eigenvalue 1 - 3 lam is a probability only for lam in [0, 1/3]
    with pytest.raises(BadParamsError, match=r"^lam must lie in \[0, 1/\(d-1\)\], got "):
        kappa_rho(4, lam)


def test_kappa_rho_accepts_lam_range_ends():
    np.testing.assert_array_equal(np.diag(kappa_rho(4, 0.0).mat).real, [1, 0, 0, 0])
    np.testing.assert_array_equal(np.diag(kappa_rho(2, 1.0).mat).real, [0, 1])


@pytest.mark.parametrize("weight", [2.0, -0.5, 1.0 + 1e-12, np.nan, np.inf])
def test_kappa_vec_rejects_weight_outside_unit_range(weight):
    with pytest.raises(BadParamsError, match=r"^weight must lie in \[0, 1\], got "):
        kappa_vec(3, weight)


def test_kappa_vec_accepts_weight_range_ends():
    np.testing.assert_array_equal(kappa_vec(3, 0.0), [0, 1, 0])
    np.testing.assert_array_equal(kappa_vec(3, 1.0), [1, 0, 0])
