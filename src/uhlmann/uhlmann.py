"""Canonical Uhlmann transformations and their robust rigidity.

The canonical transformation of a pair ``(|C>, |D>)`` is the partial
isometry ``W = sgn(Tr_A |D><C|)`` acting on subsystem B.  It achieves the
optimal overlap ``<D|(1 (x) W)|C> = F(rho, sigma)`` (as does every unitary
completion), and any unitary within ``eps`` of that optimum satisfies

    || (1 (x) (W - R) W*W) |C> ||^2  <=  (2 kappa / eta) eps

where ``eta`` is the smallest nonzero eigenvalue of the matrix geometric
mean ``rho^-1 # sigma`` and ``kappa = ||rho^-1/2 P rho^1/2||_inf^2`` with
``P`` the projector onto ``Image(rho^1/2 sigma rho^1/2)``.

Conjugation bookkeeping for the identity frame: rotating a pair so that
its coefficient grids become ``sqrt(rho_A)`` and ``sqrt(sigma_A)`` makes
the B-side reduced matrices the entrywise *conjugates* of the A-side
ones, and it is those conjugates that enter every B-side operator formula
(``W = sgn(sqrt(sigma) sqrt(rho))`` etc.).  ``IdentityFrame`` carries the
conjugate of rho, the one such matrix its readers use, so client code can
use the formulas verbatim.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

import numpy as np

from . import matcore, states
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    FrameMismatchError,
    IllConditionedError,
    NotPartialIsometryError,
    NotPsdError,
    NotUnitaryError,
    ZeroFidelityError,
)
from .matcore import Record, dagger
from .states import BipartitePureState, DensityMatrix

__all__ = [
    "IdentityFrame",
    "RigidityReport",
    "SpectralCore",
    "UhlmannInstance",
    "canonical_w",
    "check_epsilon",
    "flip",
    "geometric_mean",
    "near_optimal_unitary",
    "obliqueness_kappa",
    "projector_structure_check",
    "random_instance",
    "rigidity_report",
    "rigidity_residual",
    "spectral_gap_eta",
    "three_form_deviation",
    "unitary_completion",
]

# The draw block: primal_probe draws each block of this many walks from one generator.
_WALK_BLOCK = 64
# The compute chunk: one _walk_blocks pass holds at most this many entries per stack of
# matrices (walks x max(d, 8)^2), in whole draw blocks; 2^18 is one block at d = 64.
_CHUNK_ENTRIES = 2**18


class UhlmannInstance(Record):
    """A pair of bipartite pure states with cached reduced density matrices."""

    c: BipartitePureState
    d: BipartitePureState
    rho: DensityMatrix
    sigma: DensityMatrix

    @classmethod
    def from_states(cls, c: BipartitePureState, d: BipartitePureState) -> "UhlmannInstance":
        """The pair (C, D), or a stack of pairs when both grids are (n, dim_a, dim_b) stacks."""
        if c.coeffs.shape != d.coeffs.shape:
            raise DimensionMismatchError("C and D must live on the same product space")
        c = c if c.normalized else c.normalize()
        d = d if d.normalized else d.normalize()
        return cls(c=c, d=d, rho=states.reduce_a(c), sigma=states.reduce_a(d))

    @property
    def dim_a(self) -> int:
        return self.c.dim_a

    @property
    def dim_b(self) -> int:
        return self.c.dim_b

    def fidelity(self) -> float:
        return self.spectral_core().fidelity

    def spectral_core(self, rank_tol: float | None = None) -> "SpectralCore":
        """The instance's ``SpectralCore`` at ``rank_tol``, built once per value."""
        if rank_tol not in self._cores:
            base = None if rank_tol is None else self.spectral_core()
            self._cores[rank_tol] = SpectralCore(self, rank_tol, base)
        return self._cores[rank_tol]

    @cached_property
    def _cores(self) -> dict:
        return {}

    @property
    def frame(self) -> "IdentityFrame":
        return self.spectral_core().frame


class SpectralCore:
    """The decompositions every spectral quantity of an instance derives from.

    Every support is cut at ``rank_tol`` on a factor's singular values, as a count: the kept
    values are a prefix, sliced off.  On a stacked instance the roots, ``_b``, ``projector``,
    ``mean`` (arrays of matrices) and ``fidelity``, ``eta``, ``kappa`` (arrays of floats) are
    each row's, bit for bit, provided the rows share every cut (else DimensionMismatchError);
    the frame and everything from it (``a``, ``w``, ``p``, ``canonical_w``, the completion and
    the certificate) take one instance only.  The grid
    SVDs ``rho.factor``/``sigma.factor`` give the roots and Image(rho).  One SVD
    ``U S V*`` of ``b = sigma^1/2 rho^1/2`` (``b* b = h = rho^1/2 sigma rho^1/2``)
    gives F = sum S, P = V V* (onto Image h), eta's rank, ``mean = rho^-1 # sigma
    = rho^-1/2 V S V* rho^-1/2`` (eta is its eigvalsh; kappa takes one SVD) and,
    in the identity frame (validated on first use), ``a = conj(b)``,
    ``w = sgn(a) = conj(U V*)`` and ``p = w* w``.  One more SVD gives the read-only ``canonical_w
    = sgn(Tr_A |D><C|)`` and, as its dropped columns, W's kernel and cokernel ``completion_basis``.
    ``certificate_point`` keeps the certificate's blocks for the last alpha.  The
    core holds the instance's parts, not the instance; a core at an explicit
    ``rank_tol`` takes the frame of the default core, ``base``.
    """

    def __init__(self, inst: UhlmannInstance, rank_tol: float | None, base: "SpectralCore | None"):
        self.c, self.d, self.rho, self.sigma = inst.c, inst.d, inst.rho, inst.sigma
        self.rank_tol, self.base = rank_tol, base
        self.certificate_point = None

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        return matcore.gram_power(self.rho.factor, 1, self.rank_tol)

    @cached_property
    def rho_pinv_sqrt(self) -> np.ndarray:
        return matcore.gram_power(self.rho.factor, -1, self.rank_tol)

    @cached_property
    def sqrt_sigma(self) -> np.ndarray:
        return matcore.gram_power(self.sigma.factor, 1, self.rank_tol)

    @cached_property
    def _b(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``b = sigma^1/2 rho^1/2`` and its ``U``, ``S``, ``V`` on the kept singular values."""
        b = self.sqrt_sigma @ self.sqrt_rho
        f = matcore.svd(b, stack=True)
        r = f.cut(self.rank_tol)  # copies of the kept parts: views would keep all of U and V alive
        return b, f.u[..., :r].copy(), f.singulars[..., :r].copy(), f.v[..., :r].copy()

    def _floats(self, x: np.ndarray) -> float | np.ndarray:
        """A per-row value: a float for one instance, the array for a stack."""
        return float(x) if self.c.coeffs.ndim == 2 else x

    @cached_property
    def fidelity(self) -> float | np.ndarray:
        return self._floats(self._b[2].sum(axis=-1))  # states.fidelity, bit for bit

    @cached_property
    def projector(self) -> np.ndarray:
        if not self._b[2].shape[-1]:
            raise ZeroFidelityError("rho^1/2 sigma rho^1/2 vanishes: reduced supports are orthogonal")
        return self._b[3] @ dagger(self._b[3])

    @cached_property
    def mean(self) -> np.ndarray:
        _, _, s, v = self._b
        return self.rho_pinv_sqrt @ ((v * s[..., None, :]) @ dagger(v)) @ self.rho_pinv_sqrt

    @cached_property
    def eta(self) -> float | np.ndarray:
        _ = self.projector  # ZeroFidelityError unless b keeps a singular value
        return self._floats(matcore.lapack("eigvalsh", matcore.hermitian_part(self.mean))[..., -self._b[2].shape[-1]])

    @cached_property
    def kappa(self) -> float | np.ndarray:
        p = self.projector
        leak = p - matcore.gram_power(self.rho.factor, 0, self.rank_tol) @ p  # (1 - Proj Image(rho)) P
        if matcore.op_norm_exceeds(leak, 1e-6):  # of a stack: the largest leak
            raise IllConditionedError(f"projector leaks {np.max(matcore.op_norm(leak)):.3e} outside Image(rho)")
        norm = matcore.op_norm(self.rho_pinv_sqrt @ p @ self.sqrt_rho)
        return norm**2 if isinstance(norm, float) else np.array([x**2 for x in norm.tolist()])  # libm's pow

    @cached_property
    def frame(self) -> "IdentityFrame":
        return IdentityFrame.of(self) if self.base is None else self.base.frame

    @cached_property
    def a(self) -> np.ndarray:
        _ = self.frame  # FrameMismatchError unless the identity frame is valid
        return self._b[0].conj()

    @cached_property
    def w(self) -> np.ndarray:
        _ = self.frame
        _, u, _, v = self._b
        return (u @ dagger(v)).conj()

    @cached_property
    def p(self) -> np.ndarray:
        return dagger(self.w) @ self.w

    canonical_w = property(lambda self: self.completion_basis[0])

    @cached_property
    def completion_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f = matcore.svd(states.partial_trace_a_outer(self.d, self.c))
        r = f.cut(self.rank_tol)
        w = f.u[:, :r] @ dagger(f.v[:, :r])  # matrix_sign, bit for bit
        w.flags.writeable = False
        return w, f.v[:, r:], f.u[:, r:]

    @cached_property
    def completion(self) -> np.ndarray:  # the honest prover's: completion_basis's kernel onto its cokernel
        u = _complete(*self.completion_basis, None)
        u.flags.writeable = False
        return u


class IdentityFrame(Record):
    """Instance data rotated so both coefficient grids are PSD square roots.

    ``x_c``/``x_d`` are the B-side isometries with
    ``C.coeffs = sqrt(rho_A) @ x_c.T`` (same for D), so the original
    canonical transformation is ``x_d @ W_rot @ x_c*``.  ``rho`` is the
    *conjugate* of the A-side reduced matrix of C, i.e. the reduced B-side
    matrix of the rotated C; the B-side operator formulas use it.
    """

    rho: np.ndarray
    x_c: np.ndarray
    x_d: np.ndarray

    @classmethod
    def of(cls, core: SpectralCore) -> "IdentityFrame":
        if core.c.dim_a > core.c.dim_b:
            raise FrameMismatchError("identity-frame rotation requires dim_a <= dim_b")
        # the Schmidt frame conj(V) U^T of each grid M = U S V*
        x_c, x_d = (m.factor.v.conj() @ m.factor.u.T for m in (core.rho, core.sigma))
        frame = cls(rho=core.rho.mat.conj(), x_c=x_c, x_d=x_d)
        for x, root, s in ((x_c, core.sqrt_rho, core.c), (x_d, core.sqrt_sigma, core.d)):
            if matcore.op_norm_exceeds(dagger(x) @ x - np.eye(s.dim_a), 1e-8):
                raise FrameMismatchError("frame operator is not an isometry")
            # the roots rebuild M / |M|: from_states keeps a grid within NORM_TOL of norm 1 unscaled
            if matcore.op_norm_exceeds(root @ x.T - s.coeffs / s.norm(), 1e-7):
                raise FrameMismatchError("frame does not reconstruct the state")
        return frame

    def rotate_b_operator(self, w: np.ndarray) -> np.ndarray:
        """Transport a B-side operator of the original pair into this frame."""
        return dagger(self.x_d) @ w @ self.x_c


def canonical_w(inst: UhlmannInstance, rank_tol: float | None = None) -> np.ndarray:
    """Canonical Uhlmann transformation ``sgn(Tr_A |D><C|)`` on B, cached read-only."""
    return inst.spectral_core(rank_tol).canonical_w


def three_form_deviation(inst: UhlmannInstance) -> float:
    """Max pairwise deviation of the equivalent expressions for W.

    Evaluated in the identity frame, where the B-side density matrices are
    the conjugated reductions: (1) the defining sign of the partial trace,
    transported into the frame; (2) ``sgn(sqrt(sigma) sqrt(rho))``;
    (3) ``(rho^1/2 sigma^1/2)^-1 rho^1/2 (rho^-1 # sigma) rho^1/2``.  The
    roots, (2) and the mean are the default core's.
    """
    core = inst.spectral_core()
    w1 = inst.frame.rotate_b_operator(canonical_w(inst))
    rr = core.sqrt_rho.conj()
    w3 = matcore.pseudoinverse(dagger(core.a)) @ rr @ core.mean.conj() @ rr
    w2 = core.w
    return max(matcore.op_norm(w1 - w2), matcore.op_norm(w2 - w3), matcore.op_norm(w1 - w3))


def geometric_mean(a, b) -> np.ndarray:
    """Matrix geometric mean ``A # B`` of two Hermitian PSD matrices.

    ``A # B = A^1/2 (A^-1/2 B A^-1/2)^1/2 A^1/2`` with Moore-Penrose
    pseudoinverses.  For commuting invertible inputs this is
    ``A^1/2 B^1/2``; for invertible inputs it is the unique positive
    solution of ``X A^-1 X = B``.
    """
    a = matcore.as_matrix(a)
    b = matcore.as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    for m in (a, b):
        if matcore.op_norm_exceeds(m - dagger(m), 1e-9):
            raise NotPsdError("geometric mean requires Hermitian inputs")
    ar, air = _sqrt_pair(a)
    return _sandwiched_sqrt(ar, air, b)


def _sqrt_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``m^1/2`` and ``m^-1/2`` from one eigendecomposition."""
    eig = matcore.psd_eigen(m)
    return tuple(matcore.psd_function(eig, fn) for fn in (np.sqrt, matcore.inv_sqrt))


def _sandwiched_sqrt(outer, inner, b) -> np.ndarray:
    """``outer (inner b inner)^1/2 outer``: ``a # b`` from roots ``(a^1/2, a^-1/2)``."""
    return outer @ matcore.psd_sqrt(inner @ b @ inner, tol=1e-8) @ outer


def spectral_gap_eta(inst: UhlmannInstance, rank_tol: float | None = None) -> float:
    """Smallest nonzero eigenvalue of ``rho^-1 # sigma``.

    The mean's rank is that of its factor ``sigma^1/2 rho^1/2`` at ``rank_tol``,
    the cut that also decides F, P and W, never its own noisy zero eigenvalues.
    """
    return inst.spectral_core(rank_tol).eta


def obliqueness_kappa(inst: UhlmannInstance, rank_tol: float | None = None) -> float:
    """Obliqueness ``kappa = ||rho^-1/2 P rho^1/2||_inf^2``.

    ``P`` projects onto ``Image(rho^1/2 sigma rho^1/2)``, which is always
    contained in ``Image(rho)``; if rounding makes ``P`` leak outside by
    more than 1e-6 the oblique norm is untrustworthy and
    IllConditionedError is raised instead of returning a number.
    """
    return inst.spectral_core(rank_tol).kappa


def projector_structure_check(inst: UhlmannInstance) -> bool:
    """Check ``WW* = Proj Image(sigma^1/2 rho sigma^1/2)`` and the W*W twin within 1e-8.

    Evaluated for the canonical W in the identity frame with the conjugated reduced matrices.
    """
    wr = inst.frame.rotate_b_operator(canonical_w(inst))
    a = inst.spectral_core().a  # sigma^1/2 rho^1/2 in the frame: both images are decided on it
    left = matcore.gram_power(matcore.svd(a), 0)  # the projectors onto the two images
    right = matcore.gram_power(matcore.svd(dagger(a)), 0)
    return not (
        matcore.op_norm_exceeds(wr @ dagger(wr) - left, 1e-8)
        or matcore.op_norm_exceeds(dagger(wr) @ wr - right, 1e-8)
    )


def unitary_completion(w: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Extend a partial isometry to a unitary.

    Pairs an orthonormal basis of ``ker(W)`` with one of ``coker(W)``;
    passing ``rng`` mixes the kernel pairing by a Haar-random unitary
    (any such gauge is a valid completion).  The bases come from one SVD of W.
    """
    w = matcore.as_matrix(w)
    if w.shape[0] != w.shape[1]:
        raise DimensionMismatchError("only square partial isometries can be completed")
    f = matcore.svd(w)
    s = f.singulars
    if s.size and (np.minimum(np.abs(s - 1.0), s) > 1e-8).any():
        raise NotPartialIsometryError("singular values are not all 0 or 1 within 1e-8")
    r = int(np.searchsorted(-s, -0.5))  # the descending values are 0/1 up to 1e-8: any mid cut counts the 1s
    kernel, coker = f.v[:, r:], f.u[:, r:]
    n_missing = kernel.shape[1]
    gauge = _haar_unitary(n_missing, rng) if rng is not None and n_missing else None
    return _complete(w, kernel, coker, gauge)


def _complete(w, kernel, coker, gauges: np.ndarray | None) -> np.ndarray:
    """``W + coker G kernel*`` for a gauge G or a stack of them (identity if None), checked at once."""
    n_missing = kernel.shape[1]
    if n_missing == 0:
        return w.copy()
    gauges = np.eye(n_missing, dtype=complex) if gauges is None else gauges
    u = w + coker @ gauges @ dagger(kernel)
    if matcore.op_norm_exceeds(dagger(u) @ u - np.eye(w.shape[0]), 1e-8):
        raise NotPartialIsometryError("completion failed the unitarity check")
    return u


def rigidity_residual(inst: UhlmannInstance, r: np.ndarray) -> float:
    """The squared distance ``|| (1 (x) (W - R) W*W) |C> ||^2``, W = ``canonical_w(inst)``.

    The batch of one of ``_rigidity_residuals``; R must be unitary within 1e-8.
    """
    return _rigidity_residuals(inst, matcore.as_matrix(r)[None])[0]


def _rigidity_residuals(inst: UhlmannInstance, rs: np.ndarray) -> list[float]:
    """``rigidity_residual`` of each R of a stack: the unitarity check, ``C ((W - R) W*W)^T`` and
    the norms all run once on the stack."""
    gram = dagger(rs) @ rs
    gram -= np.eye(rs.shape[-2])
    if matcore.op_norm_exceeds(gram, 1e-8):
        raise NotUnitaryError("R must be unitary within 1e-8")
    del gram
    w = canonical_w(inst)
    moved = (inst.c.coeffs @ ((w - rs) @ (dagger(w) @ w)).mT).reshape(len(rs), -1)
    re, im = moved.real, moved.imag
    # np.linalg.norm(m) ** 2 bit for bit: its two real dots, its sqrt and libm's pow
    return np.float_power(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)), 2).tolist()


class RigidityReport(Record):
    """Rigidity parameters of an instance at a given overlap deficit."""

    fidelity: float
    eta: float
    kappa: float
    epsilon: float
    delta_bound: float
    weak_bound: float
    empirical_primal: float | None = None


def rigidity_report(
    inst: UhlmannInstance, epsilon: float, rank_tol: float | None = None,
    empirical_primal: float | None = None,
) -> RigidityReport:
    """Assemble fidelity, eta, kappa, and both robustness bounds, all at ``rank_tol``."""
    check_epsilon(epsilon)
    core = inst.spectral_core(rank_tol)
    f, eta, kappa = core.fidelity, core.eta, core.kappa
    return RigidityReport(
        fidelity=f, eta=eta, kappa=kappa, epsilon=epsilon, delta_bound=2.0 * kappa * epsilon / eta,
        weak_bound=8.0 * (1.0 - f + np.sqrt(epsilon)), empirical_primal=empirical_primal,
    )


def check_epsilon(epsilon: float) -> None:
    """Raise BadParamsError unless the overlap deficit ``epsilon`` is finite and >= 0."""
    if not 0.0 <= epsilon < np.inf:
        raise BadParamsError(f"epsilon must be finite and >= 0, got {epsilon}")


def flip(inst: UhlmannInstance) -> UhlmannInstance:
    """The reversed task (from D to C), whose canonical map is W*."""
    return UhlmannInstance.from_states(inst.d, inst.c)


# ---------------------------------------------------------------------------
# Generators used by tests, probes, and demos.
# ---------------------------------------------------------------------------


def _complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(_complex_normal((d, d), rng))


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """The Haar unitary of each complex Gaussian matrix in ``z`` (one matrix or a stack)."""
    q, r = matcore.lapack("qr", z)
    phase = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phase /= np.abs(phase)
    return q * phase[..., None, :]


def random_instance(
    d: int, rng: np.random.Generator, rank_c: int | None = None, rank_d: int | None = None
) -> UhlmannInstance:
    """Random pair of d x d bipartite states with prescribed Schmidt ranks."""

    def grid(rank):
        m = _complex_normal((d, rank), rng) @ _complex_normal((rank, d), rng)
        return m / np.linalg.norm(m)

    rank_c = rank_c if rank_c is not None else int(rng.integers(1, d + 1))
    rank_d = rank_d if rank_d is not None else int(rng.integers(1, d + 1))
    return UhlmannInstance.from_states(
        BipartitePureState(grid(rank_c)), BipartitePureState(grid(rank_d))
    )


def near_optimal_unitary(
    inst: UhlmannInstance, epsilon: float, rng: np.random.Generator,
    deficit_fraction: float | None = None,
) -> tuple[np.ndarray, float]:
    """A unitary with overlap ``>= F - epsilon`` and its real overlap ``<D| (1 (x) R) |C>``.

    The generator drives one walk, drawing a count of 1 in this order: the target
    deficit ``deficit_fraction * epsilon`` (the fraction uniform in [0.3, 1]
    when None), the Haar gauge of a random unitary completion ``U0`` of the
    canonical W (none when W is full rank), and a random Hermitian generator
    ``H = V diag(lam) V*`` scaled to ``max |lam| = 1``.  Along
    ``R(t) = U0 V exp(i t lam) V*`` the overlap is the trigonometric sum

        <D| (1 (x) R(t)) |C> = Tr(R(t) K) = sum_k a_k exp(i t lam_k),

    with ``K = Tr_A |C><D|`` and ``a = diag(V* K U0 V)``, so every step of
    the walk costs O(d).  ``t`` doubles from pi/4 (at most six times) until
    the deficit reaches the target, then 60 bisection steps land on the
    feasible side of it; a generator too weak to reach the target keeps the
    last, still feasible, ``t``.  This is the one-walk chunk of ``_walk_blocks``,
    which ``certificate.primal_probe`` runs on chunks of 64-walk blocks: a walk's
    bits do not depend on the chunk it is computed in.
    """
    ((rs, (ov,)),) = _walk_blocks(inst, epsilon, [([rng], 1, 1)], deficit_fraction)
    return rs[0], ov


def _chunk_walks(inst: UhlmannInstance) -> int:
    """Walks per compute chunk: ``_CHUNK_ENTRIES / max(d, 8)^2`` rounded down to whole draw
    blocks, and at least one block (d the larger side of the grid)."""
    side = max(inst.dim_a, inst.dim_b, 8)
    return _WALK_BLOCK * max(1, _CHUNK_ENTRIES // (_WALK_BLOCK * side * side))


def _walk_blocks(inst, epsilon, chunks, deficit_fraction) -> Iterator[tuple[np.ndarray, list[float]]]:
    """The walks of ``near_optimal_unitary`` a compute chunk at a time: the (n, d, d) stack of R
    and its overlaps.  A chunk ``(rngs, count, n)`` draws ``count`` walks from each generator in
    turn and runs the first n; the generators are taken from ``rngs`` only as they are drawn.

    Only the draws run per walk.  All else runs once per chunk (one QR of the gauges, one
    unitarity check of the completions, one eigh, the bisection on arrays of ``t`` in
    preallocated buffers, one product and one ``vecdot`` for the overlaps).  The doubling
    stops at the first step where no walk of the chunk grows: every later step would repeat
    it, so each ``t`` keeps the bits of all six steps."""
    check_epsilon(epsilon)
    f = inst.fidelity()
    k = states.partial_trace_a_outer(inst.c, inst.d)
    w, kernel, coker = inst.spectral_core().completion_basis
    n_missing = kernel.shape[1]
    c, d_row = inst.c.coeffs, inst.d.coeffs.ravel()

    def draw(rng, count):  # count walks' targets, gauge and H Gaussians: one call per kind
        fixed = deficit_fraction is not None
        frac = np.full(count, deficit_fraction) if fixed else rng.uniform(0.3, 1.0, count)
        gauges = _complex_normal((count, n_missing, n_missing), rng)
        return epsilon * frac, gauges, _complex_normal((count, *w.shape), rng)

    for rngs, count, n in chunks:
        target, zs, hs = (np.concatenate(kind)[:n] for kind in zip(*(draw(rng, count) for rng in rngs)))
        u0 = _complete(w, kernel, coker, _haar_unitaries(zs) if n_missing else None)
        lam, v = matcore.lapack("eigh", matcore.hermitian_part(hs))
        del zs, hs  # a chunk's stacks are its memory: hold each no longer than needed
        lam /= np.maximum(np.abs(lam).max(axis=1, keepdims=True), 1e-30)
        a = (v.conj() * (k @ u0 @ v)).sum(axis=1)
        t_final = _walk_times(f, a, lam, target)
        rs = u0 @ ((v * np.exp(1j * t_final[:, None, None] * lam[:, None, :])) @ dagger(v))
        del u0, v
        # from_states normalizes both states, so these are the coefficients states.overlap reads;
        # vecdot conjugates its first argument as np.vdot does, with the same bits
        yield rs, np.vecdot(d_row, (c @ rs.mT).reshape(n, -1)).real.tolist()
        del rs


def _walk_times(f: float, a: np.ndarray, lam: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Each walk's ``t``: doubling from pi/4, then 60 bisection steps, every step one ``_reaches``
    into buffers allocated once.  A doubling step where no walk grows would repeat itself to the
    end and decide ``weak`` alike, so the doubling stops there; only after six growing steps does
    ``weak`` take one more step."""
    n = len(target)
    z = np.zeros(a.shape, complex)  # i t lam: the real part stays +0, which exp maps as it maps -0
    bufs = (z, np.empty_like(z), np.empty(n, complex), np.empty(n))
    below, above = np.empty(n, bool), np.empty(n, bool)
    lo, hi, mid = np.zeros(n), np.full(n, np.pi / 4), np.empty(n)
    weak = None
    for _ in range(6):
        if not _reaches(f, a, lam, hi, target, bufs, below).any():
            break
        np.copyto(lo, hi, where=below)
        np.multiply(hi, 2.0, out=hi, where=below)
    else:
        weak, t_weak = _reaches(f, a, lam, hi, target, bufs, below).copy(), hi.copy()
    for _ in range(60):
        np.add(lo, hi, out=mid)
        mid /= 2
        _reaches(f, a, lam, mid, target, bufs, below)
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=np.logical_not(below, out=above))
    if weak is not None:
        np.copyto(lo, t_weak, where=weak)
    return lo


def _reaches(f, a, lam, t, target, bufs, out) -> np.ndarray:
    """Into ``out``, whether each walk's deficit ``f - Re sum_k a_k exp(i t lam_k)`` at its ``t`` is
    below its target; every stage writes into ``bufs``, so a step allocates nothing."""
    z, e, s, deficit = bufs
    np.multiply(t[:, None], lam, out=z.imag)
    np.exp(z, out=e)
    np.multiply(a, e, out=e)
    np.add.reduce(e, axis=1, out=s)
    np.subtract(f, s.real, out=deficit)
    return np.less(deficit, target, out=out)
