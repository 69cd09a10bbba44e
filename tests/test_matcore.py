import ast
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import random_complex, random_hermitian, random_psd, random_unitary
from uhlmann import matcore
from uhlmann.errors import DimensionMismatchError, NotHermitianError, NotNormalizedError, NotPsdError
from uhlmann.protocol import RunOutcome
from uhlmann.states import BipartitePureState, DensityMatrix, reduce_a
from uhlmann.uhlmann import RigidityReport
from uhlmann.matcore import (
    dagger,
    hermitian_eigen,
    matrix_sign,
    op_norm,
    op_norm_exceeds,
    pseudoinverse,
    psd_sqrt,
    schur_psd_margin,
    svd,
    trace_norm,
)


def test_hermitian_eigen_identity():
    eig = hermitian_eigen(np.eye(3))
    assert eig.values == pytest.approx([1, 1, 1])


def test_hermitian_eigen_diagonal():
    eig = hermitian_eigen(np.diag([2.0, -1.0]))
    assert eig.values == pytest.approx([2, -1])
    assert abs(eig.vectors[0, 0]) == pytest.approx(1)
    assert abs(eig.vectors[1, 1]) == pytest.approx(1)


def test_hermitian_eigen_reconstructs(rng):
    h = random_hermitian(rng, 5)
    eig = hermitian_eigen(h)
    np.testing.assert_allclose(eig.reconstruct(), h, atol=1e-10)
    np.testing.assert_allclose(dagger(eig.vectors) @ eig.vectors, np.eye(5), atol=1e-12)
    assert (np.diff(eig.values) <= 1e-15).all()


def test_hermitian_eigen_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_svd_zero_and_unitary(rng):
    assert svd(np.zeros((2, 2))).singulars == pytest.approx([0, 0])
    u = random_unitary(rng, 4)
    assert svd(u).singulars == pytest.approx([1, 1, 1, 1])


def test_svd_matches_eigen_oracle(rng):
    m = random_complex(rng, 4, 3)
    f = svd(m)
    gram_eigs = hermitian_eigen(dagger(m) @ m).values
    np.testing.assert_allclose(f.singulars**2, gram_eigs, atol=1e-10)
    np.testing.assert_allclose(f.reconstruct(), m, atol=1e-12)


def test_pseudoinverse_examples(rng):
    np.testing.assert_allclose(
        pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
    )
    np.testing.assert_array_equal(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))
    m = random_complex(rng, 4, 4)  # generically invertible
    np.testing.assert_allclose(m @ pseudoinverse(m), np.eye(4), atol=1e-10)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    np.testing.assert_allclose(
        pseudoinverse(np.outer(u, v.conj())), np.outer(v, u.conj()), atol=1e-12
    )


def test_penrose_conditions(rng):
    for _ in range(50):
        rows, cols = rng.integers(1, 7, size=2)
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
        p = pseudoinverse(m)
        assert op_norm(m @ p @ m - m) <= 1e-9 * (1 + op_norm(m))
        assert op_norm(p @ m @ p - p) <= 1e-9 * (1 + op_norm(p))
        assert op_norm(m @ p - dagger(m @ p)) <= 1e-9
        assert op_norm(p @ m - dagger(p @ m)) <= 1e-9


def test_matrix_sign_examples(rng):
    np.testing.assert_allclose(
        matrix_sign(np.diag([2.0, 0.0, -3.0])), np.diag([1.0, 0.0, -1.0]), atol=1e-12
    )
    u = random_unitary(rng, 4)
    np.testing.assert_allclose(matrix_sign(u), u, atol=1e-10)


def test_matrix_sign_polar_reconstruction(rng):
    m = random_complex(rng, 4, 4)
    w = matrix_sign(m)
    np.testing.assert_allclose(w @ psd_sqrt(dagger(m) @ m), m, atol=1e-9)


def test_matrix_sign_is_partial_isometry(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        rank = int(rng.integers(1, d + 1))
        m = random_complex(rng, d, rank) @ random_complex(rng, rank, d)
        w = matrix_sign(m)
        assert op_norm(w @ dagger(w) @ w - w) <= 1e-9


def test_matrix_sign_gauge_free_on_degenerate_singulars():
    # two equal singular values; result must still be the exact swap-free sign
    m = np.diag([3.0, 3.0, 0.0])
    np.testing.assert_allclose(matrix_sign(m), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_psd_sqrt_examples(rng):
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    proj = np.outer(v, v.conj())
    np.testing.assert_allclose(psd_sqrt(proj), proj, atol=1e-10)
    p = random_psd(rng, 5)
    r = psd_sqrt(p)
    np.testing.assert_allclose(r @ r, p, atol=1e-9)


def test_psd_sqrt_clamps_dust_but_rejects_negatives():
    np.testing.assert_allclose(
        psd_sqrt(np.diag([1.0, -1e-12])), np.diag([1.0, 0.0]), atol=1e-12
    )
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_image_projector(rng):
    m = random_complex(rng, 4, 4)
    np.testing.assert_allclose(matcore.gram_power(svd(m), 0), np.eye(4), atol=1e-10)
    np.testing.assert_allclose(matcore.gram_power(svd(np.zeros((3, 3))), 0), np.zeros((3, 3)), atol=0)
    m2 = random_complex(rng, 3, 2) @ random_complex(rng, 2, 3)
    pi = matcore.gram_power(svd(m2), 0)
    assert np.trace(pi).real == pytest.approx(2, abs=1e-9)
    assert op_norm(pi @ m2 - m2) <= 1e-9 * op_norm(m2)


def test_norms(rng):
    assert trace_norm(np.eye(5)) == pytest.approx(5)
    assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3)
    assert op_norm(np.eye(3)) == pytest.approx(1)
    assert op_norm(2 * random_unitary(rng, 3)) == pytest.approx(2)
    m = random_complex(rng, 5, 5)
    eig = hermitian_eigen(dagger(m) @ m)
    assert trace_norm(m) == pytest.approx(np.sqrt(eig.values).sum(), abs=1e-10)
    assert op_norm(m) == pytest.approx(np.sqrt(eig.values[0]), abs=1e-10)


def test_op_norm_exceeds_matches_op_norm(rng):
    # c * I_d has Frobenius norm c * sqrt(d) but operator norm c: with
    # c <= tol < c sqrt(d) the screen passes it on to the exact norm.
    d, tol = 4, 1e-8
    for c in (0.1 * tol, 0.5 * tol, tol, tol * (1 + 1e-6), 1.5 * tol, 2 * tol * np.sqrt(d)):
        m = c * np.eye(d, dtype=complex)
        assert op_norm_exceeds(m, tol) == (op_norm(m) > tol)
    assert not op_norm_exceeds(tol * np.eye(d), tol)
    assert op_norm_exceeds(tol * (1 + 1e-6) * np.eye(d), tol)
    # Rank one: the two norms coincide, so the decision falls to the exact norm.
    x = random_complex(rng, d, 1)
    for c in (1 - 1e-6, 1.0, 1 + 1e-6):
        m = c * tol * (x @ dagger(x)) / np.vdot(x, x).real
        assert op_norm_exceeds(m, tol) == (op_norm(m) > tol)
    for scale in (1e-10, 1e-9, 3e-9, 1e-8, 1e-7):
        m = scale * random_complex(rng, 5, 5)
        assert op_norm_exceeds(m, 1e-8) == (op_norm(m) > 1e-8)
    assert not op_norm_exceeds(np.zeros((3, 3)), 0.0)


def test_op_norm_exceeds_on_a_stack(rng):
    # A stack is decided as any(op_norm(x) > tol for x in it), each matrix as
    # op_norm alone decides it: c * I_d with c <= tol < c sqrt(d) passes the
    # screen on, exceeders, and unitarity residuals of exact unitaries.
    d, tol = 4, 1e-8
    eye = np.eye(d, dtype=complex)
    fine = [c * eye for c in (0.5 * tol, tol)]
    fine += [dagger(u) @ u - eye for u in (random_unitary(rng, d), eye[::-1], 1j * eye)]
    fine += [1e-10 * random_complex(rng, d, d)]
    bad = [tol * (1 + 1e-6) * eye, 2 * tol * eye, 1e-7 * random_complex(rng, d, d)]
    for m in fine + bad:
        assert op_norm_exceeds(m[None], tol) == op_norm_exceeds(m, tol) == (op_norm(m) > tol)
    for k in range(len(bad) + 1):
        for order in (1, -1):
            stack = np.array((fine + bad[:k])[::order])
            assert op_norm_exceeds(stack, tol) == any(op_norm(x) > tol for x in stack) == (k > 0)
    assert not op_norm_exceeds(np.zeros((0, d, d)), tol)


def test_op_norm_exceeds_finds_the_one_bad_matrix(rng, decompositions):
    stack = np.array([dagger(u) @ u - np.eye(3) for u in (random_unitary(rng, 3) for _ in range(64))])
    decompositions.clear()
    assert not op_norm_exceeds(stack, 1e-8)
    assert decompositions == {}  # every residual passes the Frobenius screen
    stack[37] = (1 + 1e-7) ** 2 * np.eye(3) - np.eye(3)  # (1 + 1e-7) U is not unitary within 1e-8
    assert op_norm_exceeds(stack, 1e-8)
    assert decompositions == {"svd": 1}  # only the matrix that fails the screen is decomposed


def test_schur_psd_check_examples(rng):
    eye = np.eye(3)
    assert schur_psd_margin(eye, np.zeros((3, 3)), eye) >= -1e-9
    assert schur_psd_margin(eye, 2 * eye, eye) < -1e-9
    b = random_complex(rng, 3, 3)
    b = b / op_norm(b) * 0.9
    assert schur_psd_margin(eye, b, eye) >= -1e-9


def test_schur_psd_check_singular_block():
    # A singular: the generalized criterion must reject B leaking out of Image(A)
    a = np.diag([1.0, 0.0])
    b = np.array([[0.0], [1.0]], dtype=complex)
    c = np.eye(1, dtype=complex)
    assert schur_psd_margin(a, b, c) < -1e-9
    assert schur_psd_margin(a, np.array([[1.0], [0.0]], dtype=complex), c) >= -1e-9


def test_schur_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        schur_psd_margin(np.eye(2), np.zeros((3, 2)), np.eye(2))


def test_schur_two_paths_agree(rng):
    agree = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        c = random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
        b = random_complex(rng, n, m)
        if rng.random() < 0.5:
            b *= 0.1  # bias towards feasible blocks
        block = np.block([[a, b], [dagger(b), c]])
        margin = np.linalg.eigvalsh((block + dagger(block)) / 2).min()
        if abs(margin) <= 1e-6:
            continue
        assert (schur_psd_margin(a, b, c) >= -1e-9) == (margin >= 0)
        agree += 1
    assert agree > 100


def test_cmjson_roundtrip(tmp_path, rng):
    m = random_complex(rng, 3, 2)
    path = tmp_path / "m.json"
    path.write_text(matcore.matrix_json_text(m), encoding="ascii")
    np.testing.assert_array_equal(matcore.read_cmjson(path)[0], m)


def test_cmjson_rejects_nonfinite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows":1,"cols":1,"data":[[NaN,0.0]]}')
    with pytest.raises(ValueError):
        matcore.read_cmjson(path)


def test_cmjson_write_is_17_digits(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matcore.matrix_json_text(np.array([[1 / 3 + 0j]])), encoding="ascii")
    assert "0.33333333333333331" in path.read_text()


def _writer_edge_matrices():
    """Signed zeros in both parts, subnormals and 1e300 in a 3x5 grid, and views of it."""
    grid = random_complex(np.random.default_rng(8), 3, 5)
    grid.flat[:6] = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1.5e-310),
                     complex(1e300, -1e300), complex(-1.5e-310, 5e-324)]
    frozen = grid.copy()
    frozen.flags.writeable = False
    return {"3x5": grid, "scaled": grid * 1e-12, "transposed": grid.T, "read_only": frozen,
            "1x1": np.array([[complex(-0.0, 1e300)]])}


@pytest.mark.parametrize("name", ["3x5", "scaled", "transposed", "read_only", "1x1"])
def test_cmjson_writer_bytes_at_the_edges(name):
    m = _writer_edge_matrices()[name]

    def ref(v):  # 17 significant digits; -0.0 keeps its sign through a JSON reader
        return "-0.0" if v == 0 and np.signbit(v) else f"{v:.17g}"

    data = ",".join(f"[{ref(z.real)},{ref(z.imag)}]" for z in m.ravel())
    rows, cols = m.shape
    assert matcore.matrix_json_text(m) == f'{{"cols":{cols},"data":[{data}],"rows":{rows}}}\n'
    text = matcore.matrix_json_text(m, extra={"a": True, "dim": 3, "norm": -0.0, "zeta": None})
    assert text == f'{{"a":true,"cols":{cols},"data":[{data}],"dim":3,"norm":-0.0,"rows":{rows},"zeta":null}}\n'
    back = matcore.cmjson_to_matrix(json.loads(text))
    assert back.tobytes() == np.ascontiguousarray(m).tobytes()  # every bit, sign bits included


@pytest.mark.parametrize("name", ["3x5", "scaled", "transposed", "read_only", "1x1"])
def test_cmjson_fields_round_trip_in_memory(name):
    m = _writer_edge_matrices()[name]
    back = matcore.cmjson_to_matrix(matcore.matrix_to_cmjson(m))
    assert back.tobytes() == np.ascontiguousarray(m).tobytes()  # every bit, sign bits included


def test_stacked_op_norm_and_hermitian_eigen_match_each_matrix(rng):
    for shape in ((5, 3, 3), (4, 2, 6), (2, 1, 1), (3, 0, 0)):
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        norms = op_norm(stack)
        assert norms.shape == shape[:1]
        assert norms.tobytes() == np.array([op_norm(m) for m in stack], dtype=float).tobytes()
    ties = [np.diag([2.0, 1.0, 1.0, 2.0]) + 0j, np.eye(4)]
    herm = np.stack([random_hermitian(rng, 4) for _ in range(3)] + ties)
    eig = hermitian_eigen(herm)
    for k, m in enumerate(herm):  # ties included: each matrix's own order, bit for bit
        one = hermitian_eigen(m)
        assert eig.values[k].tobytes() == one.values.tobytes()
        assert eig.vectors[k].tobytes() == one.vectors.tobytes()
    herm[2, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        hermitian_eigen(herm)
    with pytest.raises(DimensionMismatchError):
        hermitian_eigen(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatchError):
        op_norm(np.zeros((2, 2, 2, 2)))



@pytest.mark.parametrize("shape", [(5, 3, 3), (4, 2, 6), (3, 6, 2), (2, 1, 1)])
def test_stacked_decompositions_act_per_matrix(shape, rng):
    # Members of rank 1 to full at scales 1 to 1e-12: each row's count is its own matrix's,
    # and a stack whose rows keep different counts has no cut.
    n, rows, cols = shape
    ranks = [k % min(rows, cols) + 1 for k in range(n)]
    stack = np.stack([random_complex(rng, rows, r) @ random_complex(rng, r, cols) * 10.0 ** (-3 * k)
                      for k, r in enumerate(ranks)])
    f = svd(stack, stack=True)
    for tol in (None, 1e-6):
        for k, m in enumerate(stack):
            row = matcore.Svd(f.u[k:k + 1], f.singulars[k:k + 1], f.v[k:k + 1])  # a one-row stack of f
            assert row.cut(tol) == svd(m).cut(tol)
    assert [svd(m).cut() for m in stack] == ranks
    if len(set(ranks)) > 1:
        with pytest.raises(DimensionMismatchError):
            f.cut()
    # Rows sharing a rank at scales 1 to 1e-9 share the cut: each row is cut on its own largest
    # value, where one maximum over the stack would cut every value of the small ones at 1e-6.
    shared = max(1, min(rows, cols) - 1)
    alike = np.stack([random_complex(rng, rows, shared) @ random_complex(rng, shared, cols)
                      * 10.0 ** (-9 * k / max(n - 1, 1)) for k in range(n)])
    assert [svd(alike, stack=True).cut(tol) for tol in (None, 1e-6)] == [shared, shared]
    rebuilt = f.reconstruct()
    for k, m in enumerate(stack):
        assert rebuilt[k].tobytes() == svd(m).reconstruct().tobytes()
    herm = np.stack([random_hermitian(rng, rows, norm=10.0 ** (-3 * k)) for k in range(n)])
    rebuilt = hermitian_eigen(herm).reconstruct()
    for k, m in enumerate(herm):
        assert rebuilt[k].tobytes() == hermitian_eigen(m).reconstruct().tobytes()


def test_cmjson_reader_keeps_bits_signed_zeros_and_errors():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(12, 2)).tolist() + [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5e-324, -1e300]]
    m = matcore.cmjson_to_matrix({"rows": 4, "cols": 4, "data": vals})
    expected = np.array([complex(re, im) for re, im in vals]).reshape(4, 4)
    assert m.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(np.signbit(m.real[3]), [True, False, True, False])
    np.testing.assert_array_equal(np.signbit(m.imag[3]), [False, True, True, True])
    bad = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, float("nan")], [8.0, 9.0], [float("inf"), 0.0]]
    with pytest.raises(ValueError, match=r"^cmjson entry 3 is not finite$"):
        matcore.cmjson_to_matrix({"rows": 2, "cols": 3, "data": bad})
    with pytest.raises(DimensionMismatchError):
        matcore.cmjson_to_matrix({"rows": 2, "cols": 2, "data": bad[:3]})


def test_spectral_helpers_share_one_rank_rule(rng):
    for rank in (1, 2, 4):
        x = random_complex(rng, 4, rank)
        p = x @ dagger(x)
        eig = matcore.psd_eigen(p)
        assert matcore.psd_function(eig, np.sqrt).tobytes() == psd_sqrt(p).tobytes()
        pinv_sqrt = matcore.psd_function(matcore.psd_eigen(p), matcore.inv_sqrt)
        assert matcore.psd_function(eig, matcore.inv_sqrt).tobytes() == pinv_sqrt.tobytes()
        # the same functions of p from its factor x, cut on x's singular values
        f = matcore.svd(x)
        np.testing.assert_allclose(matcore.gram_power(f, 0), matcore.gram_power(svd(p), 0), atol=1e-10)
        np.testing.assert_allclose(matcore.gram_power(f, 1), psd_sqrt(p), atol=1e-8)
        np.testing.assert_allclose(matcore.gram_power(f, -1) @ matcore.gram_power(f, 1),
                                   matcore.gram_power(svd(p), 0), atol=1e-10)
        np.testing.assert_allclose(matcore.psd_function(eig, matcore.inv_sqrt) @ psd_sqrt(p),
                                   matcore.gram_power(svd(p), 0), atol=1e-8)
    # a zero matrix keeps nothing on any path
    assert matcore.rank_cut(np.zeros(3), 3) == 0
    np.testing.assert_array_equal(matrix_sign(np.zeros((2, 2))), np.zeros((2, 2)))
    np.testing.assert_array_equal(matcore.gram_power(matcore.svd(np.zeros((2, 2))), 0), np.zeros((2, 2)))


def test_hermitian_part_is_the_expression_it_replaces(rng):
    m = random_complex(rng, 5, 5)
    m[0, 1], m[1, 0], m[2, 2] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)
    m[3, 4], m[4, 3] = complex(-0.0, 1.0), complex(0.0, 1.0)
    for x in (m, np.asfortranarray(m), m[::2, ::2], np.stack([m, dagger(m), m.real.astype(complex)]),
              m.real):
        want, got = (x + dagger(x)) / 2, matcore.hermitian_part(x)
        assert got.tobytes() == want.tobytes()
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.flags.c_contiguous


def test_schur_margin_is_the_direct_minimum_eigenvalue(rng):
    a, c = random_psd(rng, 3, rank=2), random_psd(rng, 2)
    b = 0.05 * random_complex(rng, 3, 2)
    block = np.block([[a, b], [dagger(b), c]])
    margin = matcore.schur_psd_margin(a, b, c)
    assert margin == np.linalg.eigvalsh((block + dagger(block)) / 2)[0]


@pytest.mark.parametrize("bad", [
    complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, 0.0),
    complex(0.0, np.nan), complex(0.0, np.inf), complex(0.0, -np.inf),
    complex(np.nan, np.inf),
])
def test_as_matrix_rejects_a_nonfinite_real_or_imaginary_part(bad):
    m = np.ones((2, 3), dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
        matcore.as_matrix(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_matrix_rejects_a_nonfinite_real_array(bad):
    with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
        matcore.as_matrix(np.array([[0.0, bad]]))


def test_as_matrix_passes_finite_arrays_through(rng):
    m = random_complex(rng, 3, 2)
    m[0, 0] = complex(np.finfo(float).max, -np.finfo(float).max)
    assert matcore.as_matrix(m).tobytes() == m.tobytes()
    real = rng.normal(size=(2, 2))
    out = matcore.as_matrix(real)
    assert out.dtype == complex and out.tobytes() == real.astype(complex).tobytes()


# Record: the frozen base of every record in the package


class _Noted(matcore.Record):
    x: int
    note: str = ""
    _hidden = ("note",)


def _report(**kwargs):
    return RigidityReport(1.0, 0.5, 2.0, 0.01, 0.08, 0.8, **kwargs)


def test_record_binds_positional_keyword_and_default_arguments():
    out = RunOutcome(True, 3, 1, 0.5)
    assert (out.accepted, out.j, out.i_star, out.output_state_fidelity) == (True, 3, 1, 0.5)
    assert out == RunOutcome(accepted=True, j=3, i_star=1, output_state_fidelity=0.5)
    assert out == RunOutcome(True, 3, output_state_fidelity=0.5, i_star=1)
    assert _report().empirical_primal is None and _report(empirical_primal=0.2).empirical_primal == 0.2
    kw = dict(fidelity=1.0, eta=0.5, kappa=2.0, epsilon=0.01, delta_bound=0.08, weak_bound=0.8)
    assert RigidityReport(**kw) == _report()
    assert RigidityReport(**kw, empirical_primal=0.2) == _report(empirical_primal=0.2)
    grid = np.eye(2, dtype=complex) / np.sqrt(2)
    assert BipartitePureState(grid).normalized is True
    assert BipartitePureState(grid, normalized=False).normalized is False
    assert BipartitePureState(normalized=False, coeffs=grid).normalized is False
    assert BipartitePureState(grid).coeffs is grid  # __post_init__ replaced it through object.__setattr__
    u, sv, v = np.eye(3, 2, dtype=complex), np.array([2.0, 1.0]), np.eye(2, dtype=complex)
    for svd in (matcore.Svd(u, sv, v), matcore.Svd(u=u, singulars=sv, v=v), matcore.Svd(u, sv, v=v),
                matcore.Svd(u, v=v, singulars=sv)):
        assert svd.u is u and svd.singulars is sv and svd.v is v
    values, vectors = np.array([1.0, 0.0]), np.eye(2, dtype=complex)
    for eig in (matcore.HermitianEigen(values, vectors), matcore.HermitianEigen(vectors=vectors, values=values),
                matcore.HermitianEigen(values, vectors=vectors)):
        assert eig.values is values and eig.vectors is vectors


@pytest.mark.parametrize("make,message", [
    (lambda: RunOutcome(True, 3, 1), "missing a required argument: 'output_state_fidelity'"),
    (lambda: RunOutcome(accepted=True, j=3, i_star=1), "missing a required argument: 'output_state_fidelity'"),
    (lambda: RunOutcome(), "missing a required argument: 'accepted'"),
    (lambda: BipartitePureState(), "missing a required argument: 'coeffs'"),
    (lambda: BipartitePureState(normalized=True), "missing a required argument: 'coeffs'"),
    (lambda: matcore.Svd(1, 2), "missing a required argument: 'v'"),
    (lambda: RunOutcome(True, 3, 1, 0.5, x=1), "got an unexpected keyword argument 'x'"),
    (lambda: RunOutcome(accepted=True, j=3, i_star=1, output_state_fidelity=0.5, x=1),
     "got an unexpected keyword argument 'x'"),
    (lambda: _report(x=1), "got an unexpected keyword argument 'x'"),
    (lambda: DensityMatrix(np.eye(2) / 2, eigen=None), "got an unexpected keyword argument 'eigen'"),
    (lambda: RunOutcome(True, 3, 1, 0.5, j=4), "multiple values for argument 'j'"),
    (lambda: RunOutcome(True, accepted=False, j=3, i_star=1, output_state_fidelity=0.5),
     "multiple values for argument 'accepted'"),
    (lambda: BipartitePureState(np.eye(1), coeffs=np.eye(1)), "multiple values for argument 'coeffs'"),
    (lambda: RunOutcome(True, 3, 1, 0.5, 9), "too many positional arguments"),
    (lambda: BipartitePureState(np.eye(1), True, 5), "too many positional arguments"),
    (lambda: _Noted(1, "a", 2), "too many positional arguments"),
    (lambda: matcore.Svd(1, 2, 3, 4), "too many positional arguments"),
], ids=["missing", "missing_kw", "none", "none_required", "default_only", "missing_last", "unexpected",
        "unexpected_kw", "unexpected_default", "unexpected_cached", "duplicated", "duplicated_first",
        "duplicated_one", "surplus", "surplus_default", "surplus_hidden", "surplus_svd"])
def test_record_rejects_arguments_that_do_not_bind(make, message):
    with pytest.raises(TypeError) as info:  # inspect.Signature.bind's message
        make()
    assert str(info.value) == message


def test_record_is_frozen():
    out = RunOutcome(True, 3, 1, 0.5)
    for name in ("j", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(out, name, 4)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(out, name)
    assert out.j == 3 and not hasattr(out, "other")
    rho = reduce_a(BipartitePureState(np.diag([0.6, 0.8]).astype(complex)))
    assert rho.factor is rho.factor  # cached_property still caches in the instance


def test_record_equality_and_hash_read_the_fields():
    out = RunOutcome(True, 3, 1, 0.5)
    assert out == RunOutcome(True, 3, 1, 0.5) and hash(out) == hash(RunOutcome(True, 3, 1, 0.5))
    assert out != RunOutcome(True, 4, 1, 0.5) and out != (True, 3, 1, 0.5)
    assert hash(out) == hash((True, 3, 1, 0.5))  # the dataclass hash: of the tuple of fields
    assert _Noted(1, "a") == _Noted(1, "b") and hash(_Noted(1, "a")) == hash(_Noted(1, "b"))
    assert _Noted(1) != _Noted(2)
    rho = reduce_a(BipartitePureState(np.diag([0.6, 0.8]).astype(complex)))
    bare, scaled = DensityMatrix(rho.mat), DensityMatrix(rho.mat, grid=2 * rho.grid, trace=4.0)
    assert rho == bare == scaled  # grid and trace stay out of ==
    with pytest.raises(TypeError):
        hash(rho)  # an array field is unhashable, as in the dataclass


def test_record_repr_is_the_dataclass_text():
    # each string is what @dataclass(frozen=True) printed for the same class and values
    assert repr(RunOutcome(True, 3, 1, 0.5)) == (
        "RunOutcome(accepted=True, j=3, i_star=1, output_state_fidelity=0.5)")
    assert repr(matcore.HermitianEigen(np.array([1.0, 0.0]), np.eye(2, dtype=complex))) == (
        "HermitianEigen(values=array([1., 0.]), vectors=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]]))")
    assert repr(_report()) == ("RigidityReport(fidelity=1.0, eta=0.5, kappa=2.0, epsilon=0.01, "
                               "delta_bound=0.08, weak_bound=0.8, empirical_primal=None)")
    rho = reduce_a(BipartitePureState(np.diag([0.6, 0.8]).astype(complex)))
    assert repr(rho) == "DensityMatrix(mat=array([[0.36+0.j, 0.  +0.j],\n       [0.  +0.j, 0.64+0.j]]))"
    assert repr(_Noted(1, "a")) == "_Noted(x=1)"


def test_record_to_dict_in_field_order():
    assert list(_report(empirical_primal=0.2).to_dict().items()) == [
        ("fidelity", 1.0), ("eta", 0.5), ("kappa", 2.0), ("epsilon", 0.01), ("delta_bound", 0.08),
        ("weak_bound", 0.8), ("empirical_primal", 0.2)]
    rho = reduce_a(BipartitePureState(np.diag([0.6, 0.8]).astype(complex)))
    assert list(rho.to_dict()) == ["mat", "grid", "trace"] and rho.to_dict()["grid"] is rho.grid
    assert RunOutcome(True, 3, 1, 0.5).to_dict() == {"accepted": True, "j": 3, "i_star": 1,
                                                     "output_state_fidelity": 0.5}


def test_record_post_init_still_validates():
    with pytest.raises(NotNormalizedError):
        BipartitePureState(np.eye(2, dtype=complex))  # norm sqrt(2)
    with pytest.raises(NotNormalizedError):
        BipartitePureState(2 * np.eye(1, dtype=complex))  # norm 2
    with pytest.raises(NotPsdError):
        DensityMatrix(np.diag([2.0, -1.0]).astype(complex))


def test_record_serves_dataclasses_replace():
    out = RunOutcome(True, 3, 1, 0.5)
    assert dataclasses.replace(out, accepted=False) == RunOutcome(False, 3, 1, 0.5)
    assert [f.name for f in dataclasses.fields(out)] == ["accepted", "j", "i_star", "output_state_fidelity"]
    rho = reduce_a(BipartitePureState(np.diag([0.6, 0.8]).astype(complex)))
    moved = dataclasses.replace(rho, trace=2.0)
    assert moved.grid is rho.grid and moved.trace == 2.0
    assert [f.compare for f in dataclasses.fields(rho)] == [True, False, False]


def test_the_package_imports_without_dataclass_or_namedtuple():
    # a fresh interpreter in which @dataclass and namedtuple raise; the modules the package imports
    # from the standard library and numpy are loaded first, so only the package's own classes count
    script = textwrap.dedent("""
        import argparse, collections, dataclasses, functools, inspect, itertools, json, re, sys
        import numpy

        def refuse(*args, **kwargs):
            raise AssertionError("a class built by @dataclass or namedtuple")

        dataclasses.dataclass = collections.namedtuple = refuse
        # every submodule by name (not __main__, which runs the CLI): the package loads some on first use
        import uhlmann.adversarial, uhlmann.certificate, uhlmann.cli, uhlmann.errors, uhlmann.grouprep
        import uhlmann.matcore, uhlmann.protocol, uhlmann.states, uhlmann.uhlmann
        classes = [c for name, mod in list(sys.modules.items()) if name.split(".")[0] == "uhlmann"
                   for c in vars(mod).values() if isinstance(c, type) and c.__module__ == name]
        # a Record answers the dataclass protocol (__dataclass_fields__, for dataclasses.replace), but
        # only the decorator leaves __dataclass_params__
        made = [c.__qualname__ for c in classes if "__dataclass_params__" in vars(c)]
        assert not made, made
        print(sum(issubclass(c, uhlmann.matcore.Record) for c in classes))
    """)
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == 24  # Record and its 23 subclasses


_SPECTRA = ("singulars", "values")


def _spectrum_names(nodes) -> set:
    """Names bound to a spectrum: ``x.singulars``, ``x.values``, or the values of ``lapack("eigh" | "svd" |
    "eigvalsh", ...)``."""
    names = set()
    for n in nodes:
        if not isinstance(n, ast.Assign):
            continue
        v = n.value
        if isinstance(v, ast.Attribute) and v.attr in _SPECTRA:
            names |= {t.id for t in n.targets if isinstance(t, ast.Name)}
        elif (isinstance(v, ast.Call) and getattr(v.func, "id", getattr(v.func, "attr", None)) == "lapack"
              and v.args and isinstance(v.args[0], ast.Constant)):
            slot = {"eigvalsh": None, "eigh": 0, "svd": 1}.get(v.args[0].value, -1)
            for t in n.targets:
                if slot is None and isinstance(t, ast.Name):
                    names.add(t.id)
                elif isinstance(t, ast.Tuple) and slot not in (None, -1) and isinstance(t.elts[slot], ast.Name):
                    names.add(t.elts[slot].id)
    return names


def _is_hermitian_part(n) -> bool:
    """``(x + dagger(x)) / 2``, either order of the sum, for one expression x."""
    if not (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) and isinstance(n.left, ast.BinOp)
            and isinstance(n.left.op, ast.Add) and getattr(n.right, "value", None) == 2):
        return False
    terms = [n.left.left, n.left.right]
    daggers = [t for t in terms if isinstance(t, ast.Call) and getattr(t.func, "id", None) == "dagger"]
    return any(len(t.args) == 1 and ast.dump(t.args[0]) == ast.dump(terms[terms[0] is t]) for t in daggers)


def _gate_offences(source: str, gates: tuple = ()) -> list:
    """``(line, what)`` of each use of numpy.linalg but ``norm`` (a decomposition, LinAlgError), each
    comparison of a spectrum (a mask of singular values or eigenvalues) and each ``(x + dagger(x)) / 2``
    in ``source``, outside the top-level functions named in ``gates``."""
    tree = ast.parse(source)
    gated = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in gates for n in ast.walk(f)}
    parents = {id(c): n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(n):
            out.add((n.lineno, "numpy.linalg"))
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        nodes = [n for n in ast.walk(scope) if id(n) not in gated]
        names = _spectrum_names(nodes) if scope is not tree else set()
        for n in nodes:
            if isinstance(n, ast.Compare) and any(
                    (isinstance(x, ast.Attribute) and x.attr in _SPECTRA) or (isinstance(x, ast.Name) and x.id in names)
                    for x in [n.left, *n.comparators]):
                out.add((n.lineno, "a comparison of a spectrum"))
            if (isinstance(n, ast.Attribute) and n.attr == "linalg" and getattr(n.value, "id", None) == "np"
                    and getattr(parents.get(id(n)), "attr", None) != "norm"):
                out.add((n.lineno, "numpy.linalg"))
            if _is_hermitian_part(n):
                out.add((n.lineno, "a Hermitian part"))
    return sorted(out)


def test_matcore_makes_every_rank_cut_and_every_decomposition():
    # outside matcore.lapack (the one LAPACK gate), matcore.rank_cut (the one rank rule) and
    # matcore.hermitian_part, no module calls numpy.linalg but its norm, catches its LinAlgError, masks
    # singular values or eigenvalues, or takes a Hermitian part as (x + dagger(x)) / 2
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "uhlmann"
    files = sorted(src.glob("*.py"))
    assert len(files) == 11
    for path in files:
        gates = ("lapack", "rank_cut", "hermitian_part") if path.name == "matcore.py" else ()
        assert _gate_offences(path.read_text(encoding="utf-8"), gates) == [], path.name
    # the guard sees the forms it forbids
    forbidden = textwrap.dedent("""
        def f(m, tol):
            s = svd(m).singulars
            keep = s > tol
            w, v = lapack("eigh", m)
            try:
                u, s2, vh = np.linalg.svd(m)
            except np.linalg.LinAlgError:
                pass
            return v[:, w >= tol], np.where(svd(m).singulars > tol, 1, 0), np.linalg.norm(m)

        def g(m, x):
            h = (m + dagger(m)) / 2
            return h, (dagger(x.mean) + x.mean) / 2, (m + dagger(x)) / 2, (m + m.T) / 2, (m + dagger(m)) / 3
    """)
    assert _gate_offences(forbidden) == [(4, "a comparison of a spectrum"), (7, "numpy.linalg"),
                                         (8, "numpy.linalg"), (10, "a comparison of a spectrum"),
                                         (13, "a Hermitian part"), (14, "a Hermitian part")]
