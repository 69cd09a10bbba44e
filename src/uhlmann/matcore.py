"""Dense complex linear algebra core.

Everything in this module is a pure function of its inputs, operating on
immutable-by-convention numpy arrays of complex dtype.  Decompositions are
delegated to LAPACK (via numpy), which is deterministic for fixed input
bits; this module adds the rank conventions, tolerance policy, and checks
the rest of the package relies on.

Rank convention: a singular value (or PSD eigenvalue) counts as nonzero
when it exceeds ``rank_tol * largest``.  The default ``rank_tol`` is
``max(rows, cols) * 1e-12``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPsdError,
)

__all__ = [
    "HermitianEigen",
    "Svd",
    "as_matrix",
    "dagger",
    "default_rank_tol",
    "hermitian_eigen",
    "image_projector",
    "matrix_sign",
    "op_norm",
    "op_norm_exceeds",
    "pseudoinverse",
    "psd_pinv_sqrt",
    "psd_sqrt",
    "read_matrix",
    "schur_psd_check",
    "svd",
    "trace_norm",
    "write_matrix",
]

RANK_TOL_SCALE = 1e-12
_SCREEN_MARGIN = 1e-10


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a 2-D complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def default_rank_tol(m: np.ndarray) -> float:
    return max(m.shape) * RANK_TOL_SCALE


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition ``V diag(values) V*`` with values descending."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ dagger(self.vectors)


@dataclass(frozen=True)
class Svd:
    """Decomposition ``m = u diag(singulars) v*`` with singulars descending.

    ``u`` and ``v`` carry orthonormal columns (economy shape).
    """

    u: np.ndarray
    singulars: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singulars) @ dagger(self.v)


def hermitian_eigen(m, tol: float = 1e-10) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are sorted descending; ties keep LAPACK's (ascending) order
    reversed, which is deterministic for fixed input bits.

    Raises NotHermitianError when ``||m - m*||_inf > tol`` and
    NoConvergenceError if the LAPACK iteration fails.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    if op_norm_exceeds(a - dagger(a), tol):
        raise NotHermitianError(f"matrix is not Hermitian within tol={tol}")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return HermitianEigen(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def svd(m) -> Svd:
    """Singular value decomposition ``m = U Sigma V*``."""
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return Svd(u=u, singulars=s, v=dagger(vh))


def pseudoinverse(m, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``rank_tol * sigma_max`` are treated as zero.
    The zero matrix maps to the zero matrix.
    """
    a = as_matrix(m)
    f = svd(a)
    if f.singulars.size == 0 or f.singulars[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex)
    cut = (rank_tol if rank_tol is not None else default_rank_tol(a)) * f.singulars[0]
    inv = np.where(f.singulars > cut, 1.0 / np.where(f.singulars > 0, f.singulars, 1.0), 0.0)
    return (f.v * inv) @ dagger(f.u)


def matrix_sign(m, rank_tol: float | None = None) -> np.ndarray:
    """Partial-isometry factor ``U sgn(Sigma) V*`` of a square matrix.

    Equal to the gauge-free function ``m (m* m)^(-1/2)`` (pseudoinverse
    square root), so degenerate singular values cause no ambiguity; the
    retained support is decided on the singular values directly, below
    ``rank_tol * sigma_max`` counts as zero.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    f = svd(a)
    if f.singulars.size == 0 or f.singulars[0] == 0.0:
        return np.zeros_like(a)
    cut = (rank_tol if rank_tol is not None else default_rank_tol(a)) * f.singulars[0]
    keep = f.singulars > cut
    return f.u[:, keep] @ dagger(f.v[:, keep])


def psd_sqrt(m, tol: float = 1e-10, rank_tol: float | None = None) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero (reduced density
    matrices accumulate -1e-15 dust); anything below ``-tol`` raises
    NotPsdError.  Eigenvalues below ``rank_tol * largest`` are also
    clamped, which keeps ``sqrt`` from amplifying O(eps) junk into
    O(sqrt(eps)) spurious rank.
    """
    eig = hermitian_eigen(m, tol=max(tol, 1e-10))
    w = eig.values
    if w.size and w[-1] < -tol:
        raise NotPsdError(f"min eigenvalue {w[-1]:.3e} < -tol={tol}")
    cut = (rank_tol if rank_tol is not None else default_rank_tol(np.asarray(m))) * max(
        w[0] if w.size else 0.0, 0.0
    )
    w = np.where(w > cut, w, 0.0)
    return (eig.vectors * np.sqrt(w)) @ dagger(eig.vectors)


def psd_pinv_sqrt(m, tol: float = 1e-10, rank_tol: float | None = None) -> np.ndarray:
    """Pseudoinverse square root ``m^(-1/2)`` of a Hermitian PSD matrix."""
    eig = hermitian_eigen(m, tol=max(tol, 1e-10))
    w = eig.values
    if w.size and w[-1] < -tol:
        raise NotPsdError(f"min eigenvalue {w[-1]:.3e} < -tol={tol}")
    cut = (rank_tol if rank_tol is not None else default_rank_tol(np.asarray(m))) * max(
        w[0] if w.size else 0.0, 0.0
    )
    inv = np.where(w > cut, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    return (eig.vectors * inv) @ dagger(eig.vectors)


def image_projector(m, rank_tol: float | None = None) -> np.ndarray:
    """Hermitian projector onto the column space of ``m``."""
    a = as_matrix(m)
    f = svd(a)
    if f.singulars.size == 0 or f.singulars[0] == 0.0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    cut = (rank_tol if rank_tol is not None else default_rank_tol(a)) * f.singulars[0]
    cols = f.u[:, f.singulars > cut]
    return cols @ dagger(cols)


def trace_norm(m) -> float:
    """Schatten-1 norm: sum of singular values."""
    return float(svd(m).singulars.sum())


def op_norm(m) -> float:
    """Operator norm: largest singular value."""
    s = svd(m).singulars
    return float(s[0]) if s.size else 0.0


def op_norm_exceeds(m, tol: float) -> bool:
    """``op_norm(m) > tol``, deciding most inputs without an SVD.

    The Frobenius norm bounds the operator norm from above, so a Frobenius
    norm at most ``tol`` settles the answer as False; only a larger one
    falls back to the exact operator norm.  The screen keeps a relative
    margin of ``_SCREEN_MARGIN`` below ``tol``, which covers the rounding
    of both norms where they coincide (rank one), so the decision is the
    same as ``op_norm(m) > tol`` on every input.  A non-finite norm fails
    the screen, so such input reaches ``op_norm`` exactly as before.
    """
    if np.linalg.norm(m) <= tol * (1.0 - _SCREEN_MARGIN):
        return False
    return op_norm(m) > tol


def _min_eig(h: np.ndarray) -> float:
    sym = (h + dagger(h)) / 2
    w = np.linalg.eigvalsh(sym)
    return float(w[0]) if w.size else 0.0


def schur_psd_check(a, b, c, tol: float = 1e-9) -> bool:
    """Decide PSD-ness of the block matrix ``[[A, B], [B*, C]]``.

    Two redundant paths are evaluated: the generalized Schur-complement
    criterion (A >= 0, the rows of B stay inside Image(A), and
    C - B* A^-1 B >= 0, all up to ``tol``) and the direct minimum
    eigenvalue of the assembled block.  A confident disagreement (direct
    margin farther than 1e-6 from zero) raises ConsistencyError.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    n, nb = a.shape
    mc, m = c.shape
    if n != nb or mc != m:
        raise DimensionMismatchError("A and C must be square")
    if b.shape != (n, m):
        raise DimensionMismatchError(f"B must be {n}x{m}, got {b.shape}")
    if op_norm_exceeds(a - dagger(a), tol) or op_norm_exceeds(c - dagger(c), tol):
        raise NotHermitianError("A and C must be Hermitian within tol")

    a_pinv = pseudoinverse(a)
    criterion = (
        _min_eig(a) >= -tol
        and op_norm((np.eye(n) - a @ a_pinv) @ b) <= tol
        and _min_eig(c - dagger(b) @ a_pinv @ b) >= -tol
    )
    block = np.block([[a, b], [dagger(b), c]])
    direct_margin = _min_eig(block)
    direct = direct_margin >= -tol
    if criterion != direct and abs(direct_margin) > 1e-6:
        raise ConsistencyError(
            f"Schur criterion ({criterion}) and direct eigenvalue check "
            f"({direct}, margin {direct_margin:.3e}) disagree"
        )
    return direct


# ---------------------------------------------------------------------------
# "cmjson" file format: {"rows": r, "cols": c, "data": [[re, im], ...]}
# row-major, 17 significant digits on write, NaN/Inf rejected on read.
# ---------------------------------------------------------------------------


def matrix_to_cmjson(m) -> dict:
    a = as_matrix(m)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[z.real, z.imag] for z in a.ravel()],
    }


def cmjson_to_matrix(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise DimensionMismatchError(
            f"cmjson data length {len(data)} != rows*cols = {rows * cols}"
        )
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"cmjson entry {i} is not finite")
        flat[i] = complex(re, im)
    return flat.reshape(rows, cols)


def matrix_json_text(m, extra: dict | None = None) -> str:
    """cmjson text of a matrix: 17-significant-digit floats, sorted keys."""
    return _format_cmjson(matrix_to_cmjson(m), extra=extra)


def _format_cmjson(obj: dict, extra: dict | None = None) -> str:
    items = dict(extra or {})
    items.update(obj)
    parts = []
    for key in sorted(items):
        val = items[key]
        if key == "data":
            rows = ",".join(f"[{v[0]:.17g},{v[1]:.17g}]" for v in val)
            parts.append(f'"data":[{rows}]')
        elif isinstance(val, bool):
            parts.append(f'"{key}":{str(val).lower()}')
        elif isinstance(val, int):
            parts.append(f'"{key}":{val}')
        elif isinstance(val, float):
            parts.append(f'"{key}":{val:.17g}')
        else:
            parts.append(f'"{key}":{json.dumps(val)}')
    return "{" + ",".join(parts) + "}\n"


def write_matrix(path, m, extra: dict | None = None) -> None:
    """Write ``m`` to ``path`` in cmjson format."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(matrix_json_text(m, extra=extra))


def read_matrix(path) -> np.ndarray:
    """Read a cmjson matrix file."""
    with open(path, "r", encoding="ascii") as fh:
        obj = json.load(fh)
    return cmjson_to_matrix(obj)
