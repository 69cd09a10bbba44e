import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_density
from uhlmann import cli, grouprep, states, uhlmann
from uhlmann.errors import BadParamsError, ConsistencyError, DimensionMismatchError, NotUnitaryError
from uhlmann.grouprep import (
    ApproxRep,
    _purification_grid,
    _w_blocks,
    FiniteGroup,
    build_states,
    convolution,
    exact_representation,
    intertwiner,
    perturbed_rep,
    rep_defect,
    stability_check,
)
from uhlmann.matcore import dagger, hermitian_eigen, op_norm, op_norm_exceeds
from uhlmann.states import BipartitePureState, DensityMatrix
from uhlmann.uhlmann import UhlmannInstance, canonical_w


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """``sum_k blocks[k] (x) |k><k|`` on B1 (x) (B2 (x) B3), B1 slowest, by one scatter."""
    n, d = blocks.shape[:2]
    out = np.zeros((d, n, d, n), dtype=complex)
    out[:, np.arange(n), :, np.arange(n)] = blocks
    return out.reshape(d * n, d * n)


def w_tilde(rep):
    """The dense optimal B-side map ``sum_{g,h} (U_hg U_g*) (x) |g,h><g,h|``, the check's reference."""
    return _block_diagonal(_w_blocks(rep.unitaries, rep.group.mult).reshape(-1, rep.dim, rep.dim))


def _u_operator(rep):
    """The dense candidate transformation ``sum_h U_h (x) 1_B2 (x) |h><h|``."""
    return _block_diagonal(np.tile(rep.unitaries, (rep.group.order, 1, 1)))


def z2_rep(theta, rho_diag=(0.3, 0.7)):
    group = FiniteGroup.cyclic(2)
    us = [np.eye(2, dtype=complex), np.diag([1.0, np.exp(1j * theta)])]
    rho = DensityMatrix(np.diag(rho_diag).astype(complex))
    return ApproxRep.create(group, us, rho)


# -- groups -------------------------------------------------------------------


def test_cyclic_group_structure():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.mult[3, 2] == 1
    assert (g.inverse == np.array([0, 3, 2, 1])).all()


def test_symmetric3():
    g = FiniteGroup.symmetric3()
    assert g.order == 6
    # nonabelian: some pair fails to commute
    assert any(
        g.mult[a, b] != g.mult[b, a] for a in range(6) for b in range(6)
    )


@pytest.mark.parametrize("build", [FiniteGroup.symmetric3, lambda: FiniteGroup.cyclic(4)], ids=["s3", "z4"])
def test_built_in_groups_are_built_once_and_read_only(build):
    g = build()
    assert build() is g
    for table in (g.mult, g.inverse):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert FiniteGroup.cyclic(3) is not FiniteGroup.cyclic(4)


@pytest.mark.parametrize("order", [2.7, "2", True])
def test_group_from_file_rejects_an_order_that_is_not_an_int(order, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": order, "table": [[0, 1], [1, 0]]}))
    with pytest.raises(BadParamsError, match="order field must be an integer"):
        FiniteGroup.from_file(path)


def test_group_from_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    g = FiniteGroup.from_file(path)
    assert g.order == 3
    assert g.mult[2, 2] == 1


def test_group_rejects_broken_tables():
    with pytest.raises(BadParamsError, match=r"^element 1 has no inverse$"):
        FiniteGroup.from_table([[0, 1], [1, 1]])
    with pytest.raises(BadParamsError, match=r"^element 1 has no inverse$"):
        FiniteGroup.from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # 1 * 2 = 2 * 1 = 0 fails on one side
    with pytest.raises(BadParamsError, match=r"^no identity element$"):
        FiniteGroup.from_table([[0, 0], [0, 0]])
    # identity 0 and self-inverse elements, but (1 1) 2 = 2 while 1 (1 2) = 0;
    # (1,1,2) is the first failing triple in (a, b, c) order
    with pytest.raises(BadParamsError, match=r"^associativity fails at \(1,1,2\)$"):
        FiniteGroup.from_table([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_group_rejects_non_integer_entries():
    for table in ([[0, 1.9], [1.2, 0]], [[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]],
                  [[0, True], [True, 0]], np.array([[0, 1], [1, 0]], dtype=float),
                  np.array([[0, 1], [1, 0]], dtype=bool), [[0, "1"], ["1", 0]], [[0, 1], [[1], 0]]):
        with pytest.raises(BadParamsError, match=r"^table entries must be integers$"):
            FiniteGroup.from_table(table)
    for table in (np.array([[0, 1], [1, 0]], dtype=np.int32), [[0, np.int64(1)], [np.uint8(1), 0]]):
        assert FiniteGroup.from_table(table).mult.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(BadParamsError, match=r"^table entries must be element indices$"):
        FiniteGroup.from_table([[0, 10**30], [1, 0]])  # too large for int64, still an index error


def test_group_rejects_ragged_tables(tmp_path):
    for table in ([[0, 1], [1]], [[0], [1, 0]], [], 3):
        with pytest.raises(BadParamsError, match=r"^multiplication table must be square and nonempty$"):
            FiniteGroup.from_table(table)
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 1], [1]]}))
    with pytest.raises(BadParamsError, match=r"^multiplication table must be square and nonempty$"):
        FiniteGroup.from_file(path)


def test_group_identity_and_inverse_are_the_first_found():
    # Klein four with labels permuted so that the identity is element 2
    perm = [2, 0, 3, 1]
    table = [[perm.index(perm[a] ^ perm[b]) for b in range(4)] for a in range(4)]
    g = FiniteGroup.from_table(table)
    assert g.identity == 1  # perm[1] = 0 is the identity of the xor table
    assert g.inverse.dtype == np.dtype(int)
    assert (g.mult[np.arange(4), g.inverse] == g.identity).all()
    assert (g.inverse == np.arange(4)).all()  # every Klein element is its own inverse


# -- representations ----------------------------------------------------------


def test_exact_reps_have_zero_defect():
    for group, dim in [
        (FiniteGroup.cyclic(2), 2),
        (FiniteGroup.cyclic(4), 4),
        (FiniteGroup.cyclic(3), 5),
        (FiniteGroup.symmetric3(), 3),
        (FiniteGroup.symmetric3(), 6),
    ]:
        us = exact_representation(group, dim)
        rep = ApproxRep.create(group, us, DensityMatrix(np.eye(dim, dtype=complex) / dim))
        assert rep_defect(rep) <= 1e-10


# S3 with its elements renumbered, and D4 = <r, s> with index 4 f + k for r^k s^f (s r^k = r^-k s)
RELABELLED_S3 = [[0, 1, 2, 3, 4, 5], [1, 5, 4, 2, 3, 0], [2, 3, 0, 1, 5, 4],
                 [3, 4, 5, 0, 1, 2], [4, 2, 1, 5, 0, 3], [5, 0, 3, 4, 2, 1]]
D4 = [[(a + (-1) ** (a // 4) * b) % 4 + 4 * ((a // 4) ^ (b // 4)) for b in range(8)] for a in range(8)]


def _exact_families():
    """``(name, group, dim)`` of every built-in exact representation: z1-z8 at dims 1 to order + 2, S3 and
    its relabelled table at 3 and 6, D4 at 8."""
    groups = {f"z{n}": FiniteGroup.cyclic(n) for n in range(1, 9)}
    groups.update(s3=FiniteGroup.symmetric3(), relabelled_s3=FiniteGroup.from_table(RELABELLED_S3),
                  d4=FiniteGroup.from_table(D4))
    dims = {"s3": (3, 6), "relabelled_s3": (3, 6), "d4": (8,)}
    for name, group in groups.items():
        for dim in dims.get(name, range(1, group.order + 3)):
            yield pytest.param(name, group, dim, id=f"{name}-dim{dim}")


@pytest.mark.parametrize("name,group,dim", _exact_families())
def test_exact_representation_multiplies_exactly_in_any_labelling(name, group, dim):
    # U_a U_b = U_ab at every (a, b): exactly for the permutation actions, to 1e-12 for the characters
    us = np.stack(exact_representation(group, dim))
    products, expected = us[:, None] @ us[None], us[group.mult]
    if name.startswith("z") and dim != group.order:
        np.testing.assert_allclose(products, expected, rtol=0, atol=1e-12)
        return
    assert set(us.ravel().tolist()) <= {0, 1}
    assert (us.sum(axis=1) == 1).all() and (us.sum(axis=2) == 1).all()  # a permutation matrix each
    np.testing.assert_array_equal(products, expected)


def test_relabelled_s3_is_s3_and_sweeps_at_zero_scale_to_zero_defect(tmp_path, capsys):
    group = FiniteGroup.from_table(RELABELLED_S3)
    assert (group.mult != group.mult.T).any()  # the non-abelian group of order 6
    path = tmp_path / "relabelled_s3.json"
    path.write_text(json.dumps({"order": 6, "table": RELABELLED_S3}))
    for dim in ([], ["--dim", "6"]):
        assert cli.main(["grouprep", "--group", str(path), "--scale", "0", "--count", "1", "--seed", "1", *dim]) == 0
        assert json.loads(capsys.readouterr().out)["defect_epsilon"] <= 1e-28


def test_klein_four_has_no_built_in_rep_at_dim_2():
    # not cyclic, so no character powers; dim 2 is not its order either
    klein = FiniteGroup.from_table([[a ^ b for b in range(4)] for a in range(4)])
    with pytest.raises(BadParamsError):
        exact_representation(klein, 2)


def test_z2_defect_formula():
    # U1 = diag(1, e^{i theta}): only the (g,h) = (1,1) term contributes,
    # giving 2 rho_11 (1 - cos 2 theta) / 4 = rho_11 sin^2(theta)
    theta = np.pi - 0.1
    rep = z2_rep(theta)
    assert rep_defect(rep) == pytest.approx(0.7 * np.sin(theta) ** 2, abs=1e-12)
    assert rep_defect(z2_rep(np.pi)) <= 1e-12  # theta = pi is an exact rep


def test_defect_scales_quadratically(rng):
    group = FiniteGroup.cyclic(3)
    scales = np.array([0.02, 0.04, 0.08])
    defects = []
    for s in scales:
        rep = perturbed_rep(group, 3, s, np.random.default_rng(11))
        defects.append(rep_defect(rep))
    ratios = np.log(defects[1:]) - np.log(defects[:-1])
    np.testing.assert_allclose(ratios / np.log(2), [2.0, 2.0], atol=0.2)


def test_approxrep_validation():
    group = FiniteGroup.cyclic(2)
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(NotUnitaryError):
        ApproxRep.create(group, [np.eye(2), 0.9 * np.eye(2)], rho)
    with pytest.raises(BadParamsError):
        ApproxRep.create(group, [np.eye(2), np.eye(2)], rho, mu=[0.7, 0.7])
    with pytest.raises(DimensionMismatchError, match=r"^unitaries must share one dimension$"):
        ApproxRep.create(group, [np.eye(2), np.eye(3)], rho)
    # the elements are checked in order: a non-unitary first element is reported first
    with pytest.raises(NotUnitaryError):
        ApproxRep.create(group, [0.9 * np.eye(2), np.eye(3)], rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_mu_is_rejected(bad):
    # NaN fails every comparison, so mu is accepted only where the comparisons that must hold do
    group, rho = FiniteGroup.cyclic(2), DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(BadParamsError, match=r"^mu must be a probability vector over the group$"):
        ApproxRep.create(group, exact_representation(group, 2), rho, mu=[bad, 0.5])
    with pytest.raises(BadParamsError, match=r"^mu must be a probability vector over the group$"):
        perturbed_rep(group, 2, 0.3, np.random.default_rng(1), mu=[bad, 0.5])


def _create_outcome(group, unitaries, rho):
    try:
        rep = ApproxRep.create(group, unitaries, rho)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    return rep.unitaries.dtype, rep.unitaries.tobytes()


def test_approxrep_takes_a_stack_as_its_list():
    # a stack is checked in one call; it gives the list's result or error, in the list's order
    z3 = FiniteGroup.cyclic(3)
    mixed2, mixed3 = (DensityMatrix(np.eye(k, dtype=complex) / k) for k in (2, 3))
    good = np.stack(exact_representation(z3, 2))
    nan = good.copy()
    nan[1, 0, 0] = np.nan
    cases = [(good, mixed2), (good * 0.9, mixed2), (nan, mixed2),
             (good[:2], mixed2), (np.ones((3, 2, 3)), mixed2), (good, mixed3),
             (perturbed_rep(z3, 2, 0.3, np.random.default_rng(5)).unitaries, mixed2)]
    for stack, rho in cases:
        assert _create_outcome(z3, stack, rho) == _create_outcome(z3, list(stack), rho)
    assert _create_outcome(z3, good * 0.9, mixed2)[0] is NotUnitaryError
    assert _create_outcome(z3, nan, mixed2) == (ValueError, "matrix entries must be finite (no NaN/Inf)")


def test_approxrep_stacks_the_unitaries():
    group = FiniteGroup.cyclic(3)
    us = exact_representation(group, 2)
    rep = ApproxRep.create(group, us, DensityMatrix(np.eye(2, dtype=complex) / 2))
    assert rep.unitaries.shape == (3, 2, 2) and rep.unitaries.dtype == complex
    np.testing.assert_array_equal(rep.unitaries, np.stack(us))
    assert rep.dim == 2


@pytest.mark.parametrize("dim", [0, -1])
def test_exact_representation_rejects_dim_below_one(dim):
    with pytest.raises(BadParamsError, match=r"^dim must be >= 1, got "):
        exact_representation(FiniteGroup.cyclic(3), dim)
    with pytest.raises(BadParamsError, match=r"^dim must be >= 1, got "):
        perturbed_rep(FiniteGroup.cyclic(3), dim, 0.2, np.random.default_rng(1))


@pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
def test_perturbed_rep_rejects_non_finite_scale(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParamsError, match=r"^scale must be finite, got "):
            perturbed_rep(FiniteGroup.cyclic(3), 3, scale, np.random.default_rng(1))


# -- encoded states -----------------------------------------------------------


def test_build_states_exact_rep_fidelity_one():
    group = FiniteGroup.cyclic(3)
    us = exact_representation(group, 3)
    rep = ApproxRep.create(group, us, DensityMatrix(np.eye(3, dtype=complex) / 3))
    inst = build_states(rep)
    assert inst.fidelity() == pytest.approx(1, abs=1e-10)
    assert op_norm(inst.c.coeffs @ w_tilde(rep).T - inst.d.coeffs) <= 1e-10


def test_build_states_trivial_group():
    group = FiniteGroup.cyclic(1)
    rep = ApproxRep.create(group, [np.eye(2, dtype=complex)], DensityMatrix(np.eye(2, dtype=complex) / 2))
    inst = build_states(rep)
    np.testing.assert_allclose(inst.c.coeffs, inst.d.coeffs, atol=1e-12)
    np.testing.assert_allclose(w_tilde(rep), np.eye(2 * 1 * 1), atol=1e-12)
    mats, v = intertwiner(rep)
    np.testing.assert_allclose(mats[0], np.eye(1), atol=0)
    np.testing.assert_allclose(v, rep.unitaries[0], atol=1e-12)


def test_build_states_overlap_bound(rng):
    group = FiniteGroup.cyclic(3)
    rep = perturbed_rep(group, 3, 0.3, rng, rho=random_density_matrix(rng, 3))
    inst = build_states(rep)
    defect = rep_defect(rep)
    ov = states.overlap(inst.d, _u_operator(rep), inst.c)
    assert ov.real >= 1 - defect / 2 - 1e-10


def random_density_matrix(rng, d):
    return DensityMatrix(random_density(rng, d))


def test_w_tilde_maps_c_to_d(rng):
    group = FiniteGroup.cyclic(4)
    rep = perturbed_rep(group, 4, 0.4, rng)
    inst = build_states(rep)
    wt = w_tilde(rep)
    assert op_norm(dagger(wt) @ wt - np.eye(wt.shape[0])) <= 1e-9
    assert np.linalg.norm(inst.c.coeffs @ wt.T - inst.d.coeffs) <= 1e-9


@pytest.mark.parametrize("name,dim", [("s3", 3), ("z4", 4), ("z3", 2)])
def test_block_builders_match_kron_reference(name, dim):
    group = FiniteGroup.symmetric3() if name == "s3" else FiniteGroup.cyclic(int(name[1:]))
    rep = perturbed_rep(group, dim, 0.3, np.random.default_rng(11))
    n, us, mult = group.order, rep.unitaries, group.mult
    w_ref = np.zeros((dim * n * n,) * 2, dtype=complex)
    u_ref = np.zeros_like(w_ref)
    for g in range(n):
        proj = np.zeros((n, n))
        proj[g, g] = 1.0
        u_ref += np.kron(us[g], np.kron(np.eye(n), proj))
        for h in range(n):
            idx = np.arange(dim) * n * n + g * n + h
            w_ref[np.ix_(idx, idx)] = us[mult[h, g]] @ dagger(us[g])
    np.testing.assert_array_equal(w_tilde(rep), w_ref)
    np.testing.assert_array_equal(_u_operator(rep), u_ref)


@pytest.mark.parametrize("name,dim", [("s3", 3), ("z4", 2), ("z5", 5)])
def test_gathers_match_loop_reference(name, dim):
    # the loops over the multiplication table that the gathers replaced, as the exact reference
    group = FiniteGroup.symmetric3() if name == "s3" else FiniteGroup.cyclic(int(name[1:]))
    n, rng = group.order, np.random.default_rng(23)
    mu = np.arange(n, dtype=float) % 3
    rep = perturbed_rep(group, dim, 0.3, rng, rho=random_density_matrix(rng, dim), mu=mu / mu.sum())
    us, mult, rho = rep.unitaries, group.mult, rep.rho.mat
    defect = 0.0
    conv = np.zeros((n, dim, dim), dtype=complex)
    for g in range(n):
        for h in range(n):
            conv[g] += dagger(us[h]) @ us[mult[h, g]]
            if rep.mu[g] > 0:
                a = us[h] @ us[g] - us[mult[h, g]]
                defect += rep.mu[g] / n * np.trace(dagger(a) @ a @ rho).real
    conv /= n
    dist = 0.0
    for g in range(n):
        if rep.mu[g] > 0:
            a = us[g] - conv[g]
            dist += rep.mu[g] * np.trace(dagger(a) @ a @ rho).real
    assert rep_defect(rep) == defect
    assert stability_check(rep).stability_distance == dist
    for g in range(n):
        np.testing.assert_array_equal(convolution(rep, g), conv[g])

    psi = _purification_grid(rep.rho)
    ref_c = np.zeros((dim, dim, n, n), dtype=complex)
    ref_d = np.zeros_like(ref_c)
    for g in range(n):
        weight = np.sqrt(rep.mu[g] / n)
        if weight > 0:
            for h in range(n):
                ref_c[:, :, g, h] = weight * (psi @ us[g].T)
                ref_d[:, :, g, h] = weight * (psi @ us[mult[h, g]].T)
    inst = build_states(rep)
    assert inst.c.coeffs.tobytes() == ref_c.reshape(dim, -1).tobytes()  # bytes: +0.0 where mu(g) = 0
    assert inst.d.coeffs.tobytes() == ref_d.reshape(dim, -1).tobytes()
    mats, v = intertwiner(rep)
    for g in range(n):
        ref = np.zeros((n, n), dtype=complex)
        for h in range(n):
            ref[h, mult[h, g]] = 1.0
        np.testing.assert_array_equal(mats[g], ref)
    ref_v = np.zeros((dim * n, dim), dtype=complex)
    for h in range(n):
        ref_v[h::n, :] = us[h] / np.sqrt(n)
    np.testing.assert_array_equal(v, ref_v)


# -- intertwiner --------------------------------------------------------------


def test_intertwiner_permutation_rep_is_exact(rng):
    group = FiniteGroup.symmetric3()
    rep = perturbed_rep(group, 3, 0.2, rng)
    mats, v = intertwiner(rep)
    for g in range(group.order):
        for h in range(group.order):
            np.testing.assert_array_equal(
                (mats[g] @ mats[h]).real.astype(int), mats[group.mult[g, h]].real.astype(int)
            )
    np.testing.assert_allclose(dagger(v) @ v, np.eye(rep.dim), atol=1e-9)


def test_intertwiner_convolution_identity(rng):
    group = FiniteGroup.cyclic(4)
    rep = perturbed_rep(group, 4, 0.3, rng)
    mats, v = intertwiner(rep)
    for g in range(group.order):
        lifted = dagger(v) @ np.kron(np.eye(rep.dim), mats[g]) @ v
        np.testing.assert_allclose(lifted, convolution(rep, g), atol=1e-9)
        brute = sum(
            dagger(rep.unitaries[h]) @ rep.unitaries[group.mult[h, g]]
            for h in range(group.order)
        ) / group.order
        np.testing.assert_allclose(convolution(rep, g), brute, atol=1e-12)


def test_intertwiner_exact_rep_recovers_elements():
    group = FiniteGroup.cyclic(3)
    us = exact_representation(group, 3)
    rep = ApproxRep.create(group, us, DensityMatrix(np.eye(3, dtype=complex) / 3))
    for g in range(3):
        np.testing.assert_allclose(convolution(rep, g), us[g], atol=1e-10)


# -- stability ----------------------------------------------------------------


def test_stability_exact_rep_all_zero():
    group = FiniteGroup.cyclic(4)
    us = exact_representation(group, 4)
    rep = ApproxRep.create(group, us, DensityMatrix(np.eye(4, dtype=complex) / 4))
    res = stability_check(rep)
    assert res.defect_epsilon <= 1e-10
    assert res.stability_distance <= 1e-10
    assert res.uhlmann_residual <= 1e-10


def test_stability_z2_example():
    res = stability_check(z2_rep(np.pi - 0.1))
    assert res.stability_distance <= res.defect_epsilon + 1e-6
    assert res.eta == pytest.approx(1, abs=1e-8)
    assert res.kappa == pytest.approx(1, abs=1e-8)
    # the residual reproduces the defect exactly; the convolution distance
    # is strictly smaller (here by a factor 2)
    assert res.uhlmann_residual == pytest.approx(res.defect_epsilon, abs=1e-10)
    assert res.stability_distance == pytest.approx(res.defect_epsilon / 2, abs=1e-10)


def test_stability_random_reps(rng):
    for group in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), FiniteGroup.symmetric3()):
        dim = 3 if group.order == 6 else group.order
        for _ in range(5):
            rep = perturbed_rep(
                group, dim, float(rng.uniform(0.05, 0.6)), rng,
                rho=random_density_matrix(rng, dim),
            )
            res = stability_check(rep)
            assert res.stability_distance <= res.defect_epsilon + 1e-6
            assert res.uhlmann_residual == pytest.approx(res.defect_epsilon, abs=1e-8)


def test_w_tilde_equals_canonical_on_support(rng):
    # uniform mu: W~ agrees with the canonical transformation on its support
    group = FiniteGroup.cyclic(3)
    rep = perturbed_rep(group, 3, 0.3, rng)
    inst = build_states(rep)
    w = canonical_w(inst)
    wt = w_tilde(rep)
    p = dagger(w) @ w
    assert op_norm(wt @ p - w) <= 1e-8


def test_zero_weight_blocks_are_positive_zero(rng):
    # a zero mu(g) leaves its C and D blocks exactly +0.0, as an untouched zero array would be
    group = FiniteGroup.cyclic(3)
    rep = perturbed_rep(group, 2, 0.3, rng, mu=[0.0, 0.5, 0.5])
    inst = build_states(rep)
    for coeffs in (inst.c.coeffs, inst.d.coeffs):
        blocks = coeffs.reshape(2, 2, 3, 3)[:, :, 0]
        assert not blocks.any()
        assert not np.signbit(blocks.real).any() and not np.signbit(blocks.imag).any()
        assert np.signbit(coeffs.reshape(2, 2, 3, 3)[:, :, 1:].real).any()  # weighted blocks do have signs


def test_convolution_stacks_over_index_arrays(rng):
    group = FiniteGroup.symmetric3()
    rep = perturbed_rep(group, 3, 0.3, rng)
    stacked = convolution(rep, np.arange(group.order))
    assert stacked.shape == (group.order, 3, 3)
    for g in range(group.order):
        np.testing.assert_array_equal(stacked[g], convolution(rep, g))


def test_nonuniform_mu_with_zero_weights(rng):
    group = FiniteGroup.cyclic(4)
    mu = np.array([0.5, 0.5, 0.0, 0.0])
    rep = perturbed_rep(group, 4, 0.2, rng, mu=mu)
    res = stability_check(rep)
    assert res.stability_distance <= res.defect_epsilon + 1e-6
    # W~ still matches the canonical map on its support even off uniform mu
    inst = build_states(rep)
    w = canonical_w(inst)
    assert op_norm(w_tilde(rep) @ (dagger(w) @ w) - w) <= 1e-8


# -- stacked perturbation and block residual -----------------------------------

SWEEP = [f"z{n}" for n in range(2, 9)] + ["s3"]


def _sweep(name):
    """``(group, dim, rho, mu)`` at dims 2, 3 and the order where a built-in exact rep exists,
    with a random rho and a skewed mu that gives element 0 (and every third one) weight 0."""
    group = FiniteGroup.symmetric3() if name == "s3" else FiniteGroup.cyclic(int(name[1:]))
    n = group.order
    for dim in (3, 6) if name == "s3" else sorted({2, 3, n}):  # s3 has no built-in rep at dim 2
        skewed = np.arange(n, dtype=float) % 3
        yield group, dim, random_density_matrix(np.random.default_rng((n, dim)), dim), skewed / skewed.sum()


def _perturbed_rep_loop(group, dim, scale, rng, rho, mu):
    """``perturbed_rep`` one element at a time: a draw, an SVD, an eigh and a matmul each."""
    us = []
    for mat in exact_representation(group, dim):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + dagger(h)) / 2
        h /= max(op_norm(h), 1e-30)
        eig = hermitian_eigen(h)
        rot = (eig.vectors * np.exp(1j * scale * eig.values)) @ dagger(eig.vectors)
        us.append(mat @ rot)
    return ApproxRep.create(group, us, rho, mu=mu)


@pytest.mark.parametrize("name", SWEEP)
def test_perturbed_rep_stack_matches_the_element_loop(name, decompositions):
    for group, dim, rho, mu in _sweep(name):
        decompositions.clear()
        rep = perturbed_rep(group, dim, 0.3, np.random.default_rng((dim, 1)), rho=rho, mu=mu)
        assert decompositions == {"svd": 1, "eigh": 1}  # one of each for all |G| elements
        ref = _perturbed_rep_loop(group, dim, 0.3, np.random.default_rng((dim, 1)), rho, mu)
        assert rep.unitaries.tobytes() == ref.unitaries.tobytes()
        assert rep.mu.tobytes() == ref.mu.tobytes() and rep.rho is ref.rho


@pytest.mark.parametrize("name", SWEEP)
def test_block_residual_matches_the_dense_operator(name):
    for group, dim, rho, mu in _sweep(name):
        rep = perturbed_rep(group, dim, 0.3, np.random.default_rng((dim, 2)), rho=rho, mu=mu)
        inst = build_states(rep)
        dense = np.linalg.norm(inst.c.coeffs @ (_u_operator(rep) - w_tilde(rep)).T) ** 2
        assert stability_check(rep).uhlmann_residual == pytest.approx(dense, rel=1e-12, abs=0)


@pytest.mark.parametrize("factor", [1 + 1e-5, 1 - 1e-5])
def test_w_tilde_check_decides_as_the_dense_operator(factor, monkeypatch):
    # D moved by a rank-one E with ||E|| = factor * 1e-9: ||C W~ᵀ - D|| sits just past or short of 1e-9
    rep = perturbed_rep(FiniteGroup.symmetric3(), 3, 0.3, np.random.default_rng(5))
    inst = build_states(rep)
    rng = np.random.default_rng(6)
    x, y = (rng.normal(size=k) + 1j * rng.normal(size=k) for k in (3, inst.dim_b))
    e = np.outer(x / np.linalg.norm(x), y / np.linalg.norm(y)) * (factor * 1e-9)
    moved = UhlmannInstance.from_states(inst.c, BipartitePureState(inst.d.coeffs + e))
    dense = op_norm_exceeds(moved.c.coeffs @ w_tilde(rep).T - moved.d.coeffs, 1e-9)
    assert dense == (factor > 1)
    monkeypatch.setattr(grouprep, "build_states", lambda *_: moved)
    if dense:
        with pytest.raises(ConsistencyError, match=r"^W~ does not map C to D$"):
            stability_check(rep)
    else:
        assert stability_check(rep).uhlmann_residual > 0


def _symmetric4():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup.from_table([[index[tuple(a[b[i]] for i in range(4))] for b in perms] for a in perms])


def test_stability_check_memory_is_bounded_at_s4():
    # |G| = 24 at d = 4: a dense W~ would be (d|G|^2)^2 = 2304^2 complex entries, about 85 MB
    group, dim, rng = _symmetric4(), 4, np.random.default_rng(24)
    rep = ApproxRep.create(group, [uhlmann._haar_unitary(dim, rng) for _ in range(24)],
                           random_density_matrix(rng, dim))
    tracemalloc.start()
    try:
        res = stability_check(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    # criterion 10's three links, computed as in the acceptance test
    rep_mats, v = intertwiner(rep)
    dilated, gap = 0.0, 1.0
    for g in range(group.order):
        lifted = np.kron(np.eye(dim), rep_mats[g]) @ v
        diff = lifted - v @ rep.unitaries[g]
        m_g = dagger(v) @ lifted
        dilated += rep.mu[g] * np.trace(dagger(diff) @ diff @ rep.rho.mat).real
        gap -= rep.mu[g] * np.trace(dagger(m_g) @ m_g @ rep.rho.mat).real
    assert abs(res.uhlmann_residual - res.defect_epsilon) <= 1e-8
    assert abs(res.uhlmann_residual - dilated) <= 1e-8
    assert abs(res.uhlmann_residual - res.stability_distance - gap) <= 1e-8


# -- the stacked sweep -----------------------------------------------------------


def _grouprep_out(capsys, *argv):
    assert cli.main(["grouprep", *argv]) == 0
    return capsys.readouterr().out


def test_grouprep_checks_each_row_through_the_module(monkeypatch, capsys):
    # a wrapper of grouprep.stability_check sees every row, one call each, in order
    calls, check = [], grouprep.stability_check

    def spy(rep, *args):
        calls.append((rep.unitaries.tobytes(), check(rep, *args)))
        return calls[-1][1]

    monkeypatch.setattr(grouprep, "stability_check", spy)
    out = _grouprep_out(capsys, "--group", "s3", "--count", "5", "--seed", "2", "--scale", "0.3")
    assert len(calls) == 5
    for k, (line, (us, res)) in enumerate(zip(out.splitlines(), calls, strict=True)):
        alone = perturbed_rep(FiniteGroup.symmetric3(), 3, 0.3, np.random.default_rng((2, k)))
        assert us == alone.unitaries.tobytes()
        assert json.loads(line) == {"index": k, **res.to_dict()}


def test_grouprep_rows_do_not_depend_on_the_pass(capsys):
    # z8 at its regular dim 8 has |G|^2 d^2 = 4096 entries a row: a pass holds 64 rows, so 70 take two
    assert max(1, uhlmann._CHUNK_ENTRIES // 4096) == 64
    short = _grouprep_out(capsys, "--group", "z8", "--count", "3", "--seed", "4")
    long = _grouprep_out(capsys, "--group", "z8", "--count", "70", "--seed", "4").splitlines(keepends=True)
    assert len(long) == 70 and "".join(long[:3]) == short
    alone = stability_check(perturbed_rep(FiniteGroup.cyclic(8), 8, 0.2, np.random.default_rng((4, 64))))
    assert json.loads(long[64]) == {"index": 64, **alone.to_dict()}  # first row of pass two


@pytest.mark.parametrize("name,dim", [("s3", 3), ("z4", 4)])
def test_a_row_of_a_pass_is_a_pure_cache(name, dim):
    # random rho, and a skewed mu with zero weights: a multi-row pass gives each row its pass of one
    group = FiniteGroup.symmetric3() if name == "s3" else FiniteGroup.cyclic(4)
    rho = random_density_matrix(np.random.default_rng(31), dim)
    skewed = np.arange(group.order, dtype=float) % 3
    rngs = [np.random.default_rng((7, k)) for k in range(5)]
    reps = grouprep._perturbed_reps(group, dim, 0.3, rngs, rho, skewed / skewed.sum())
    for k, (rep, row) in enumerate(zip(reps, grouprep._rows(reps), strict=True)):
        ref = np.random.default_rng((7, k))
        alone = perturbed_rep(group, dim, 0.3, ref, rho, skewed / skewed.sum())
        assert rep.unitaries.tobytes() == alone.unitaries.tobytes()
        assert rngs[k].bit_generator.state == ref.bit_generator.state  # one draw of (|G|, 2, d, d) each
        assert stability_check(rep, row) == stability_check(rep) == stability_check(alone)


def test_grouprep_sweep_memory_does_not_grow_with_count(monkeypatch, capsys):
    monkeypatch.setattr(uhlmann, "_CHUNK_ENTRIES", 2 * 4096)  # two z8 rows at dim 8 a pass
    peaks = []
    for count in (2, 8, 64):  # the first run warms numpy's one-time allocations
        tracemalloc.start()
        try:
            _grouprep_out(capsys, "--group", "z8", "--count", str(count), "--seed", "1")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < 1.1 * peaks[1]  # one pass of 64 rows would hold about 8 times as much


# -- eta and kappa on the pass's stacked instance -------------------------------------


def test_d1_eta_and_kappa_do_not_depend_on_where_the_grids_sit():
    # Z8 at d = 1 (1 x 64 grids): a BLAS dot for M M* rounded by the grid's place in a larger buffer
    inst = build_states(perturbed_rep(FiniteGroup.cyclic(8), 1, 0.7, np.random.default_rng((2, 0))))
    seen = set()
    for width, offset in [(1, 0), (2, 1), (4, 0), (4, 3), (5, 2), (8, 7)]:  # entry k at buf[k, offset]
        placed = []
        for grid in (inst.c.coeffs, inst.d.coeffs):
            buf = np.zeros((grid.size + 1, width), dtype=complex)
            buf[:grid.size, offset] = grid.ravel()
            placed.append(BipartitePureState(buf[:grid.size, offset].reshape(grid.shape)))
        core = UhlmannInstance.from_states(*placed).spectral_core()
        seen.add(np.array([core.eta, core.kappa, core.fidelity]).tobytes())
    assert len(seen) == 1


def test_grouprep_linalg_calls_do_not_grow_with_count(decompositions, capsys):
    counts = []
    for count in ("1", "8"):
        decompositions.clear()
        _grouprep_out(capsys, "--group", "s3", "--count", count, "--seed", "3")
        counts.append(dict(decompositions))
    assert counts[0] == counts[1]


def _ragged_pass():
    """Six S3 reps at d = 3 whose rho has an eigenvalue just above the rank cut: noise puts b's
    smallest singular value on both sides of it across the rows."""
    for k in range(1, 200):
        ev = np.array([1.0, 0.5, 3e-12 * (1 + k * 2.0**-50)])
        rho = DensityMatrix(np.diag(ev / ev.sum()).astype(complex))
        rngs = [np.random.default_rng((9, j)) for j in range(6)]
        reps = grouprep._perturbed_reps(FiniteGroup.symmetric3(), 3, 0.3, rngs, rho)
        mc, md = grouprep._encode(reps[0], np.stack([r.unitaries for r in reps]))
        try:
            uhlmann.spectral_gap_eta(build_states(reps[0], (mc, md)))
        except DimensionMismatchError:
            return reps
    raise AssertionError("no rho near the cut gave a ragged pass")


def test_a_ragged_pass_takes_each_row_alone(monkeypatch):
    reps = _ragged_pass()
    alone, spectral_alone = [], grouprep._spectral_alone
    monkeypatch.setattr(grouprep, "_spectral_alone", lambda *a: alone.append(1) or spectral_alone(*a))
    rows = grouprep._rows(reps)
    assert len(alone) == len(reps)
    for rep, row in zip(reps, rows, strict=True):
        assert stability_check(rep, row) == stability_check(rep)


def test_a_failing_row_raises_its_own_error_in_its_turn(monkeypatch):
    rngs = [np.random.default_rng((8, k)) for k in range(4)]
    reps = grouprep._perturbed_reps(FiniteGroup.symmetric3(), 3, 0.3, rngs)
    bad, build = build_states(reps[2]).c.coeffs, grouprep.build_states

    def failing(rep, grids=None):  # row 2's reductions "disagree", alone or inside the stack
        if any(np.array_equal(m, bad) for m in np.reshape(grids[0], (-1, *bad.shape))):
            raise ConsistencyError("A-side reductions of C and D should coincide")
        return build(rep, grids)

    monkeypatch.setattr(grouprep, "build_states", failing)
    rows = grouprep._rows(reps)
    for k in (0, 1, 3):
        assert stability_check(reps[k], rows[k]) == stability_check(reps[k])
    with pytest.raises(ConsistencyError, match=r"^A-side reductions of C and D should coincide$"):
        stability_check(reps[2], rows[2])
