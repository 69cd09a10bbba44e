import dataclasses

import numpy as np
import pytest

from conftest import random_complex, random_unitary
from uhlmann import matcore, states
from uhlmann.errors import DimensionMismatchError, NotNormalizedError, NotPsdError
from uhlmann.matcore import dagger
from uhlmann.states import (
    BipartitePureState,
    DensityMatrix,
    apply_b,
    fidelity,
    omega,
    overlap,
    partial_trace_a_outer,
    reduce_a,
    reduce_b,
)
from uhlmann.uhlmann import UhlmannInstance


def apply_a(s: BipartitePureState, a: np.ndarray) -> BipartitePureState:
    """Apply the operator ``a`` on subsystem A: ``(a (x) 1)|s>``."""
    a = matcore.as_matrix(a)
    if a.shape[1] != s.dim_a:
        raise DimensionMismatchError(f"operator acts on dim {a.shape[1]}, state has dim_a {s.dim_a}")
    return BipartitePureState(a @ s.coeffs, normalized=False)


def random_state(rng, da, db, rank=None):
    rank = rank if rank is not None else min(da, db)
    m = random_complex(rng, da, rank) @ random_complex(rng, rank, db)
    return BipartitePureState(m / np.linalg.norm(m))


# -- brute-force oracles ----------------------------------------------------


def reduce_a_bruteforce(s):
    m = s.coeffs
    da = s.dim_a
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for ip in range(da):
            for j in range(s.dim_b):
                out[i, ip] += m[i, j] * np.conj(m[ip, j])
    return out


def trace_a_outer_bruteforce(d, c):
    dm, cm = d.coeffs, c.coeffs
    db = d.dim_b
    out = np.zeros((db, db), dtype=complex)
    for j in range(db):
        for jp in range(db):
            for i in range(d.dim_a):
                out[j, jp] += dm[i, j] * np.conj(cm[i, jp])
    return out


def overlap_bruteforce(d, r, c):
    moved = np.zeros_like(c.coeffs)
    for i in range(c.dim_a):
        for j in range(c.dim_b):
            for jp in range(c.dim_b):
                moved[i, j] += r[j, jp] * c.coeffs[i, jp]
    return np.sum(np.conj(d.coeffs) * moved)


# -- construction and omega ---------------------------------------------------


def test_rejects_denormalized_state():
    with pytest.raises(NotNormalizedError):
        BipartitePureState(np.eye(2, dtype=complex) * 0.8)


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[0.5, 1e-9], [0.0, 0.5]]),  # not Hermitian by 1e-9
        np.diag([1.0 + 1e-9, -1e-9]),  # an eigenvalue at -1e-9
        np.diag([0.5, 0.5 + 1e-9]),  # trace 1 + 1e-9
    ],
)
def test_density_matrix_rejects(mat):
    with pytest.raises(NotPsdError):
        DensityMatrix(mat.astype(complex))


def test_density_matrix_keeps_its_eigendecomposition(rng):
    p = random_complex(rng, 4, 3)
    rho = DensityMatrix(p @ dagger(p) / np.trace(p @ dagger(p)).real)
    np.testing.assert_allclose(rho.eigen.reconstruct(), rho.mat, rtol=0, atol=1e-15)
    assert np.all(np.diff(rho.eigen.values) <= 0)
    assert rho.eigen.values[-1] >= -1e-10
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.eigen = None
    with pytest.raises(TypeError):
        DensityMatrix(rho.mat, eigen=rho.eigen)


def test_reduce_a_keeps_the_grid_factor(rng):
    # also for dim_a > dim_b, where the thin SVD has fewer columns than rho
    for da, db, rank in ((3, 5, 2), (5, 3, 3), (4, 4, 4)):
        rho = reduce_a(random_state(rng, da, db, rank))
        x = rho.factor.reconstruct()
        np.testing.assert_allclose(x @ dagger(x), rho.mat, rtol=0, atol=1e-15)
        assert rho.eigen.values.tolist() == (rho.factor.singulars**2).tolist()
        np.testing.assert_allclose(rho.eigen.reconstruct(), rho.mat, rtol=0, atol=1e-15)
        assert rho.eigen.vectors is rho.factor.u
    assert DensityMatrix(rho.mat).factor is None


def test_reduce_a_takes_its_factor_when_first_read(rng, decompositions):
    for da, db, rank in ((3, 5, 2), (5, 3, 3), (4, 4, 4)):
        s = random_state(rng, da, db, rank)
        decompositions.clear()
        rho = reduce_a(s)
        assert decompositions == {}
        f = rho.factor
        assert decompositions == {"svd": 1}
        assert rho.factor is f and rho.eigen.vectors is f.u and decompositions == {"svd": 1}
        # the factor reduce_a took eagerly before: the grid's SVD, scaled by the trace's root
        m = s.coeffs
        eager = matcore.svd(m)
        scaled = eager.singulars / np.sqrt(np.trace(m @ dagger(m)).real)
        assert (f.u.tobytes(), f.v.tobytes()) == (eager.u.tobytes(), eager.v.tobytes())
        assert f.singulars.tobytes() == scaled.tobytes()
    assert DensityMatrix(rho.mat).factor is None


def test_omega_grid_and_reflection(rng):
    w = omega(2)
    np.testing.assert_array_equal(w.coeffs, np.eye(2))
    a = random_complex(rng, 3, 3)
    w3 = omega(3)
    np.testing.assert_allclose(apply_a(w3, a).coeffs, apply_b(w3, a.T).coeffs, atol=1e-14)
    dmat = np.diag([1.0, 2.0, 3.0]).astype(complex)
    np.testing.assert_allclose(apply_a(w3, dmat).coeffs, dmat, atol=0)
    np.testing.assert_allclose(apply_b(w3, dmat.T).coeffs, dmat, atol=0)


def test_reduce_examples(rng):
    product = BipartitePureState(np.array([[1.0, 0], [0, 0]], dtype=complex))
    np.testing.assert_allclose(reduce_a(product).mat, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(reduce_a(omega(3)).mat, np.eye(3) / 3, atol=1e-14)
    s = random_state(rng, 4, 4)
    ev_a = np.linalg.eigvalsh(reduce_a(s).mat)
    ev_b = np.linalg.eigvalsh(reduce_b(s).mat)
    np.testing.assert_allclose(ev_a, ev_b, atol=1e-10)


def test_reduce_matches_bruteforce(rng):
    s = random_state(rng, 3, 5)
    np.testing.assert_allclose(reduce_a(s).mat, reduce_a_bruteforce(s), atol=1e-12)


def test_partial_trace_outer(rng):
    c = random_state(rng, 4, 3)
    np.testing.assert_allclose(
        partial_trace_a_outer(c, c), reduce_b(c).mat, atol=1e-10
    )
    # orthogonal A-supports -> zero operator
    ca = BipartitePureState(np.array([[1.0, 0], [0, 0]], dtype=complex))
    cb = BipartitePureState(np.array([[0, 0], [0, 1.0]], dtype=complex))
    np.testing.assert_allclose(partial_trace_a_outer(ca, cb), np.zeros((2, 2)), atol=0)
    d = random_state(rng, 4, 3)
    np.testing.assert_allclose(
        partial_trace_a_outer(d, c), trace_a_outer_bruteforce(d, c), atol=1e-12
    )


def test_fidelity_basics(rng):
    rho = reduce_a(random_state(rng, 3, 3))
    assert fidelity(rho, rho) == pytest.approx(1, abs=1e-10)
    e0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    e1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert fidelity(e0, e1) == pytest.approx(0, abs=1e-12)
    sig = reduce_a(random_state(rng, 3, 3))
    assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-9)
    assert -1e-9 <= fidelity(rho, sig) <= 1 + 1e-9


def test_fidelity_takes_density_matrices_only():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert fidelity(rho, rho) == pytest.approx(1, abs=1e-12)
    for args in ((rho.mat, rho), (rho, rho.mat), (rho.mat, rho.mat)):
        with pytest.raises(TypeError, match="DensityMatrix"):
            fidelity(*args)


def test_fidelity_diagonal_family_value():
    # d=4 diagonal pair: rho maximally mixed, sigma = (0.46, 0.46, 0.04, 0.04)
    delta = 0.08
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
    sigma = DensityMatrix(np.diag([0.46, 0.46, 0.04, 0.04]).astype(complex))
    expected = np.sqrt((1 - delta) / 2) + np.sqrt(delta / 2)
    assert fidelity(rho, sigma) == pytest.approx(expected, abs=1e-12)


def test_schmidt_reconstruction_and_frame(rng):
    # the identity frame's X, the Schmidt frame conj(V) U^T of a grid: coeffs = sqrt(reduce_a) X^T, X an isometry
    for _ in range(20):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(da, 7))
        s = random_state(rng, da, db, rank=int(rng.integers(1, da + 1)))
        inst = UhlmannInstance.from_states(s, s)
        x = inst.frame.x_c
        np.testing.assert_allclose(dagger(x) @ x, np.eye(da), atol=1e-9)
        for root in (inst.spectral_core().sqrt_rho, matcore.psd_sqrt(reduce_a(s).mat)):  # and an eigen root
            np.testing.assert_allclose(root @ x.T, s.coeffs, atol=1e-9)


def test_overlap_basics(rng):
    c = random_state(rng, 3, 3)
    assert overlap(c, np.eye(3), c) == pytest.approx(1, abs=1e-12)
    d = random_state(rng, 3, 3)
    r = random_complex(rng, 3, 3)
    assert overlap(d, r, c) == pytest.approx(overlap_bruteforce(d, r, c), abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        overlap(d, np.eye(4), c)


@pytest.mark.parametrize("call", [
    lambda s, one: overlap(s, np.eye(3), one),
    lambda s, one: overlap(one, np.eye(3), s),
    lambda s, one: partial_trace_a_outer(s, one),
    lambda s, one: partial_trace_a_outer(one, s),
    lambda s, one: reduce_b(s),
], ids=["overlap_d", "overlap_c", "partial_trace_d", "partial_trace_c", "reduce_b"])
@pytest.mark.parametrize("normalized", [True, False])
def test_one_state_functions_reject_a_stack(call, normalized, rng):
    one = random_state(rng, 3, 3)
    grids = np.stack([one.coeffs, random_state(rng, 3, 3).coeffs]) * (1 if normalized else 2)
    with pytest.raises(DimensionMismatchError):
        call(BipartitePureState(grids, normalized=normalized), one)
    call(one, one)  # one state each is answered


def test_overlap_bounded_by_fidelity(rng):
    # Uhlmann bound: |<D|(1 x R)|C>| <= F for 500 random unitaries, d <= 5
    for d in (2, 3, 5):
        c = random_state(rng, d, d, rank=int(rng.integers(1, d + 1)))
        dd = random_state(rng, d, d, rank=int(rng.integers(1, d + 1)))
        f = fidelity(reduce_a(c), reduce_a(dd))
        worst = max(
            abs(overlap(dd, random_unitary(rng, d), c)) for _ in range(500)
        )
        assert worst <= f + 1e-9


def test_state_file_roundtrip(tmp_path, rng):
    s = random_state(rng, 2, 3)
    path = tmp_path / "state.json"
    states.write_state(path, s)
    back = states.read_state(path)
    np.testing.assert_array_equal(back.coeffs, s.coeffs)
    assert back.normalized


def test_state_file_round_trips_bit_for_bit_at_d128(tmp_path):
    grid = random_complex(np.random.default_rng(128), 128, 128)
    grid /= np.linalg.norm(grid)
    grid.flat[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e300),
                     complex(1e-4, -0.99999999999999989)]
    path = tmp_path / "state.json"
    states.write_state(path, BipartitePureState(grid, normalized=False))
    assert states.read_state(path).coeffs.tobytes() == grid.tobytes()  # -0.0 keeps its sign bit
