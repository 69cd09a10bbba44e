"""Bipartite pure states, partial traces, and fidelity.

Vectorization convention, fixed once for the whole package: a state on a
``dim_a x dim_b`` product space is stored as its coefficient grid
``coeffs[i, j] = amplitude of |i>_A |j>_B``.  Consequences used below:

* applying an operator ``R`` on subsystem B maps ``coeffs -> coeffs @ R.T``
* ``reduce_a = M M*`` and ``reduce_b = M.T conj(M)``
* ``Tr_A(|D><C|) = D.T conj(C)`` as an operator on B

Each of these is validated against a brute-force index-sum oracle in the
test suite, because a silent transposition is the dominant failure mode
here.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import matcore
from .errors import DimensionMismatchError, NotNormalizedError, NotPsdError
from .matcore import Record, as_matrix, dagger

__all__ = [
    "BipartitePureState",
    "DensityMatrix",
    "apply_b",
    "fidelity",
    "omega",
    "overlap",
    "partial_trace_a_outer",
    "read_state",
    "reduce_a",
    "reduce_b",
    "write_state",
]

NORM_TOL = 1e-6


def _check_rows(m: np.ndarray, failing: list, error: type, message) -> None:
    """Raise ``error(message(k))`` for the first k with ``failing[k]``, naming matrix k when m is a stack."""
    if True in failing:
        k = failing.index(True)
        raise error(f"row {k}: " * (m.ndim == 3) + message(k))


class BipartitePureState(Record):
    """Pure state on a ``dim_a x dim_b`` product space.

    ``normalized=False`` marks deliberately unnormalized vectors (the
    maximally entangled reference); states claiming to be normalized are
    rejected when their norm deviates by more than 1e-6 rather than being
    silently rescaled.
    """

    coeffs: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_matrix(self.coeffs, stack=True))
        if self.normalized:
            nrm = self.norm()
            nrm = nrm.tolist() if self.coeffs.ndim == 3 else [nrm]
            _check_rows(self.coeffs, [abs(x - 1.0) > NORM_TOL for x in nrm], NotNormalizedError,
                        lambda k: f"state norm {nrm[k]} deviates from 1 by more than {NORM_TOL}")

    @property
    def dim_a(self) -> int:
        return self.coeffs.shape[-2]

    @property
    def dim_b(self) -> int:
        return self.coeffs.shape[-1]

    def norm(self) -> float | np.ndarray:
        """``np.linalg.norm`` of the grid; of a stack, each grid's, bit for bit (two real dots and a sqrt)."""
        if self.coeffs.ndim == 2:
            return float(np.linalg.norm(self.coeffs))
        rows = self.coeffs.reshape(len(self.coeffs), -1)
        return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))

    def normalize(self) -> "BipartitePureState":
        if self.normalized:
            return self
        nrm = np.asarray(self.norm())
        if (nrm == 0.0).any():
            raise NotNormalizedError("cannot normalize the zero vector")
        return BipartitePureState(self.coeffs / nrm[..., None, None])


class DensityMatrix(Record):
    """Hermitian, PSD, trace-one matrix.  With a ``grid`` M (from ``reduce_a``: ``mat = M M* / trace``),
    ``factor`` is M's SVD scaled by ``trace^-1/2``, taken the first time it is read, and ``eigen`` is
    read off it.  Without one, ``factor`` is None and ``eigen`` is the ``psd_eigen`` that validated mat.
    Every reader of the spectrum reuses ``eigen``.  A stack of grids gives a stack of each, checked per row."""

    mat: np.ndarray
    grid: np.ndarray | None = None
    trace: float = 1.0
    _hidden = ("grid", "trace")

    def __post_init__(self):
        m = as_matrix(self.mat, stack=self.grid is not None)
        if m.shape[-2] != m.shape[-1]:
            raise DimensionMismatchError("density matrix must be square")
        _check_rows(m, list(matcore.exceeding(m - dagger(m), 1e-10)), NotPsdError,
                    lambda k: "density matrix is not Hermitian within 1e-10")
        if self.grid is None:
            object.__setattr__(self, "eigen", matcore.psd_eigen(m))  # NotPsdError below -1e-10
        tr = np.ravel(m.trace(axis1=-2, axis2=-1))
        _check_rows(m, [abs(t.real - 1.0) > 1e-10 or abs(t.imag) > 1e-10 for t in tr.tolist()], NotPsdError,
                    lambda k: f"density matrix trace {tr[k]} != 1 within 1e-10")
        object.__setattr__(self, "mat", m)

    @cached_property
    def factor(self) -> matcore.Svd | None:
        if self.grid is None:
            return None
        f = matcore.svd(self.grid, stack=True)
        return matcore.Svd(f.u, f.singulars / np.sqrt(self.trace)[..., None], f.v)

    @cached_property
    def eigen(self) -> matcore.HermitianEigen:
        return matcore.HermitianEigen(self.factor.singulars**2, self.factor.u)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


def omega(d: int) -> BipartitePureState:
    """Unnormalized maximally entangled reference ``sum_i |i>|i>``.

    Stored with ``normalized=False``; operations that need a normalized
    state (reductions, overlaps) normalize on demand.  The reflection
    identity ``(A (x) 1)|Omega> = (1 (x) A.T)|Omega>`` holds exactly in
    the coefficient-grid picture: both sides have grid ``A``.
    """
    if d < 1:
        raise DimensionMismatchError("omega requires d >= 1")
    return BipartitePureState(np.eye(d, dtype=complex), normalized=False)


def apply_b(s: BipartitePureState, r: np.ndarray) -> BipartitePureState:
    """Apply the operator ``r`` on subsystem B: ``(1 (x) r)|s>``."""
    r = as_matrix(r)
    if r.shape[1] != s.dim_b:
        raise DimensionMismatchError(f"operator acts on dim {r.shape[1]}, state has dim_b {s.dim_b}")
    return BipartitePureState(s.coeffs @ r.T, normalized=False)


def _grid(s: BipartitePureState, stack: bool = False) -> np.ndarray:
    """The normalized grid of one state (with ``stack``, of a stack too); a stack raises DimensionMismatchError."""
    if s.coeffs.ndim == 3 and not stack:
        raise DimensionMismatchError(f"expected one state, got a stack of {len(s.coeffs)}")
    return (s if s.normalized else s.normalize()).coeffs


def reduce_a(s: BipartitePureState) -> DensityMatrix:
    """Reduced density matrix ``M M* / Tr`` on subsystem A (of each grid of a stack); its factor is the
    SVD of the grid M.  At dim_a = 1, M M* is a sum of squares, not a BLAS dot rounded by M's layout."""
    m = _grid(s, stack=True)
    if s.dim_a == 1:
        g = (np.square(m.real) + np.square(m.imag)).sum(axis=-1, keepdims=True).astype(complex)
    else:
        g = m @ dagger(m)
    tr = g.trace(axis1=-2, axis2=-1).real
    return DensityMatrix(g / tr[..., None, None], grid=m, trace=tr)


def reduce_b(s: BipartitePureState) -> DensityMatrix:
    """Reduced density matrix on subsystem B."""
    m = _grid(s)
    g = m.T @ m.conj()
    return DensityMatrix(g / np.trace(g).real)


def partial_trace_a_outer(d: BipartitePureState, c: BipartitePureState) -> np.ndarray:
    """The operator ``Tr_A(|D><C|)`` on subsystem B."""
    if (d.dim_a, d.dim_b) != (c.dim_a, c.dim_b):
        raise DimensionMismatchError("states live on different product spaces")
    return _grid(d).T @ _grid(c).conj()


def overlap(d: BipartitePureState, r: np.ndarray, c: BipartitePureState) -> complex:
    """The amplitude ``<D| (1 (x) R) |C>``."""
    r = as_matrix(r)
    if r.shape != (c.dim_b, c.dim_b):
        raise DimensionMismatchError(f"R must be {c.dim_b}x{c.dim_b}, got {r.shape}")
    if (d.dim_a, d.dim_b) != (c.dim_a, c.dim_b):
        raise DimensionMismatchError("states live on different product spaces")
    return complex(np.vdot(_grid(d), _grid(c) @ r.T))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``F(rho, sigma) = Tr sqrt(rho^1/2 sigma rho^1/2)`` by one rule: the sum of the
    singular values of ``sigma^1/2 rho^1/2`` that the rank rule keeps.  A root is ``gram_power`` of the
    state's ``factor`` when it has one, else ``psd_function`` of its eigendecomposition; with both
    factors this is ``SpectralCore.fidelity``, bit for bit.  Both must be DensityMatrix (else TypeError)."""
    if not (isinstance(rho, DensityMatrix) and isinstance(sigma, DensityMatrix)):
        raise TypeError(f"fidelity takes two DensityMatrix, got {type(rho).__name__}, {type(sigma).__name__}")
    rs, ss = (matcore.gram_power(x.factor, 1) if x.factor is not None
              else matcore.psd_function(x.eigen, np.sqrt) for x in (rho, sigma))
    if rs.shape != ss.shape:
        raise DimensionMismatchError(f"shape mismatch {rs.shape} vs {ss.shape}")
    b = matcore.svd(ss @ rs)
    return float(b.singulars[:b.cut()].sum())


# ---------------------------------------------------------------------------
# State files: cmjson of the coefficient grid plus dims and the norm flag.
# ---------------------------------------------------------------------------


def write_state(path, s: BipartitePureState) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(matcore.matrix_json_text(
            s.coeffs, extra={"dim_a": s.dim_a, "dim_b": s.dim_b, "normalized": bool(s.normalized)}))


def read_state(path) -> BipartitePureState:
    """The state of a cmjson file whose ``dim_a``, ``dim_b`` are integers and ``normalized`` true or false:
    a field of another JSON type raises ValueError naming it."""
    coeffs, obj = matcore.read_cmjson(path)
    dim_a, dim_b = (matcore.json_count(obj, k, "state file") for k in ("dim_a", "dim_b"))
    if type(obj["normalized"]) is not bool:
        raise ValueError(f"state file field normalized must be true or false, got {obj['normalized']!r}")
    if coeffs.shape != (dim_a, dim_b):
        raise DimensionMismatchError(
            f"state file dims ({dim_a},{dim_b}) disagree with grid shape {coeffs.shape}"
        )
    return BipartitePureState(coeffs, normalized=obj["normalized"])
