"""Stability of approximate group representations, at desk scale.

A family ``{U_g}`` with multiplication defect
``E_{g~mu, h~G} ||U_h U_g - U_hg||_rho^2 <= eps`` is encoded into a pair
of bipartite states whose optimal B-side transformation is the
block-diagonal ``W~ = sum (U_hg U_g*) (x) |g,h><g,h|``.  The two reduced
A-states coincide, so the rigidity parameters are eta = kappa = 1 and the
rigidity theorem bounds the distance from ``U = sum U_h (x) |h><h|`` to
``W~`` by the defect; unpacking that distance against the exact
permutation representation ``R(g) = sum |h><hg|`` and the isometry
``V = |G|^-1/2 sum U_h (x) |h>`` yields the stability statement
``E_g ||U_g - V* R(g) V||_rho^2 <= eps``.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np

from . import matcore, uhlmann
from .errors import BadParamsError, ConsistencyError, DimensionMismatchError, NotUnitaryError, UhlmannError
from .matcore import Record, dagger
from .states import BipartitePureState, DensityMatrix
from .uhlmann import UhlmannInstance

__all__ = [
    "ApproxRep",
    "FiniteGroup",
    "StabilityResult",
    "build_states",
    "exact_representation",
    "intertwiner",
    "perturbed_rep",
    "rep_defect",
    "stability_check",
]


class FiniteGroup(Record):
    """Finite group as an explicit multiplication table on indices.

    ``mult[a, b]`` is the index of the product ab.  Associativity,
    identity, and inverses are verified exhaustively at construction.
    ``mult`` and ``inverse`` are read-only, so one group can be shared: the
    built-in groups are built once per process.
    """

    order: int
    mult: np.ndarray
    inverse: np.ndarray
    labels: tuple
    identity: int

    @classmethod
    def from_table(cls, table, labels=None) -> "FiniteGroup":
        cells = np.array(table, dtype=object)  # ragged rows stay lists, entries keep their types
        n = cells.shape[0] if cells.ndim else 0
        if cells.shape != (n, n) or n < 1:
            raise BadParamsError("multiplication table must be square and nonempty")
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in cells.flat):
            raise BadParamsError("table entries must be integers")
        if not ((cells >= 0) & (cells < n)).all():
            raise BadParamsError("table entries must be element indices")
        mult = cells.astype(int)
        ids = np.flatnonzero(((mult == np.arange(n)) & (mult.T == np.arange(n))).all(axis=1))
        if ids.size == 0:
            raise BadParamsError("no identity element")
        identity = int(ids[0])
        is_inverse = (mult == identity) & (mult.T == identity)
        lacking = np.flatnonzero(~is_inverse.any(axis=1))
        if lacking.size:
            raise BadParamsError(f"element {lacking[0]} has no inverse")
        inverse = is_inverse.argmax(axis=1)
        broken = np.argwhere(mult[mult] != mult[:, mult])  # (ab)c against a(bc)
        if broken.size:
            raise BadParamsError("associativity fails at ({},{},{})".format(*broken[0]))
        labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise BadParamsError("labels length must match the order")
        mult.flags.writeable = inverse.flags.writeable = False
        return cls(order=n, mult=mult, inverse=inverse, labels=labels, identity=identity)

    @classmethod
    @functools.cache
    def cyclic(cls, n: int) -> "FiniteGroup":
        if not 1 <= n <= 8:
            raise BadParamsError("cyclic groups are provided for 1 <= n <= 8")
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls.from_table(table, labels=[f"g{a}" for a in range(n)])

    @classmethod
    @functools.cache
    def symmetric3(cls) -> "FiniteGroup":
        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(a[b[i]] for i in range(3))] for b in perms]
            for a in perms
        ]
        return cls.from_table(table, labels=[str(p) for p in perms])

    @classmethod
    def from_file(cls, path) -> "FiniteGroup":
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
        if type(obj) is not dict:
            raise BadParamsError(f"group file must hold a JSON object, got {type(obj).__name__}")
        if type(obj.get("labels", [])) is not list:
            raise BadParamsError(f"labels field must be a list, got {obj['labels']!r}")
        if type(obj["order"]) is not int:  # json also gives floats, strings and bools
            raise BadParamsError(f"order field must be an integer, got {obj['order']!r}")
        if obj["order"] != len(obj["table"]):
            raise BadParamsError("order field disagrees with table size")
        return cls.from_table(obj["table"], labels=obj.get("labels"))


class ApproxRep(Record):
    """Candidate representation: a (|G|, d, d) stack of unitaries, sampling measure, test state."""

    group: FiniteGroup
    unitaries: np.ndarray
    mu: np.ndarray
    rho: DensityMatrix

    @classmethod
    def create(cls, group, unitaries, rho, mu=None) -> "ApproxRep":
        if isinstance(unitaries, np.ndarray) and unitaries.ndim == 3:  # a stack, checked at once
            us = matcore.as_matrix(unitaries, stack=True)
        else:
            us = [matcore.as_matrix(u) for u in unitaries]
        if len(us) != group.order:
            raise DimensionMismatchError("need one unitary per group element")
        d = us[0].shape[0]
        # the elements before the first misshapen one are screened first, as a loop in order would
        fit = next((k for k, u in enumerate(us) if u.shape != (d, d)), len(us))
        stack = np.asarray(us[:fit]).reshape(fit, d, d)
        if matcore.op_norm_exceeds(dagger(stack) @ stack - np.eye(d), 1e-9):
            raise NotUnitaryError("representation element is not unitary within 1e-9")
        if fit < len(us):
            raise DimensionMismatchError("unitaries must share one dimension")
        mu = np.full(group.order, 1.0 / group.order) if mu is None else np.asarray(mu, float)
        if mu.shape != (group.order,) or not (mu.min() >= 0 and abs(mu.sum() - 1.0) <= 1e-10):  # NaN fails
            raise BadParamsError("mu must be a probability vector over the group")
        if rho.dim != d:
            raise DimensionMismatchError("rho must act on the representation space")
        return cls(group=group, unitaries=stack, mu=mu, rho=rho)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]


def exact_representation(group: FiniteGroup, dim: int) -> list:
    """An exact unitary representation of ``group`` on ``dim`` dimensions, read off its table, any labelling.

    Any group gets its left-regular action at dim = order, on the cosets of the identity; otherwise cyclic
    groups get diagonal character powers (any dim) and S3 its natural action on the cosets of its
    least-index involution at dim 3.
    """
    if dim < 1:
        raise BadParamsError(f"dim must be >= 1, got {dim}")
    n = group.order
    if dim == n:
        return _coset_action(group, [group.identity])
    powers = next((p for p in (_element_powers(group, g) for g in range(n)) if len(p) == n), None)
    if powers is not None:  # the powers of the first element that generates the group
        omega_n = np.exp(2j * np.pi / n)
        return [
            np.diag([omega_n ** (powers[g] * (j % n)) for j in range(dim)]).astype(complex)
            for g in range(n)
        ]
    if n == 6 and dim == 3:  # the non-cyclic group of order 6 is S3
        involution = np.flatnonzero((group.inverse == np.arange(n)) & (np.arange(n) != group.identity))[0]
        return _coset_action(group, [group.identity, involution])
    raise BadParamsError(f"no built-in exact representation of this group at dim={dim}")


def _coset_action(group: FiniteGroup, sub: list) -> list:
    """Permutation matrices of ``g: xH -> gxH`` on the left cosets of the subgroup ``H = sub``, the cosets
    in the order of their least elements ``x_k``: column k of g's matrix is the coset of ``g x_k``."""
    least, slot = np.unique(group.mult[:, sub].min(axis=1), return_inverse=True)
    eye = np.eye(len(least), dtype=complex)
    return [eye[:, slot[group.mult[g, least]]] for g in range(group.order)]


def _element_powers(group: FiniteGroup, g: int) -> dict:
    """Map element -> exponent along the cyclic subgroup generated by g."""
    powers = {group.identity: 0}
    cur = g
    while cur not in powers:
        powers[cur] = len(powers)
        cur = group.mult[cur, g]
    return powers


def perturbed_rep(
    group: FiniteGroup,
    dim: int,
    scale: float,
    rng: np.random.Generator,
    rho: DensityMatrix | None = None,
    mu=None,
) -> ApproxRep:
    """Exact representation times ``exp(i scale H_g)`` with random Hermitian H_g.

    Each ``H_g`` is independent with operator norm 1, so the defect is
    tunable through ``scale`` with a known exact reference.  The H_g are one
    (|G|, d, d) stack, drawn element by element (real part, then imaginary).
    """
    return _perturbed_reps(group, dim, scale, [rng], rho, mu)[0]


def _perturbed_reps(group, dim, scale, rngs, rho=None, mu=None) -> list[ApproxRep]:
    """``perturbed_rep`` of each generator, perturbed together; rep k draws from ``rngs[k]`` alone."""
    if not np.isfinite(scale):
        raise BadParamsError(f"scale must be finite, got {scale}")
    base = np.stack(exact_representation(group, dim))
    parts = np.stack([rng.normal(size=(group.order, 2, dim, dim)) for rng in rngs])
    h = (parts[:, :, 0] + 1j * parts[:, :, 1]).reshape(-1, dim, dim)
    h = matcore.hermitian_part(h)
    h /= np.maximum(matcore.op_norm(h), 1e-30)[:, None, None]
    eig = matcore.hermitian_eigen(h)
    rot = (eig.vectors * np.exp(1j * scale * eig.values)[:, None]) @ dagger(eig.vectors)
    if rho is None:
        rho = DensityMatrix(np.eye(dim, dtype=complex) / dim)
    return [ApproxRep.create(group, us, rho, mu=mu) for us in base @ rot.reshape(len(rngs), *base.shape)]


def rep_defect(rep: ApproxRep) -> float:
    """Multiplication defect ``E_{g~mu, h~G} ||U_h U_g - U_hg||_rho^2``.

    Exact double sum over the grid ``[g, h]``; ``||A||_rho = sqrt(Tr(A* A rho))``.
    """
    return _defects(rep, rep.unitaries[None])[0]


def _defects(rep: ApproxRep, us: np.ndarray) -> list:
    """``rep_defect`` of each (|G|, d, d) stack of ``us`` under rep's group, mu and rho."""
    a = us[:, None] @ us[:, :, None] - us[:, rep.group.mult.T]
    return _rho_weighted_sums(a, (rep.mu / rep.group.order)[:, None], rep.rho)


def _rho_weighted_sums(a: np.ndarray, weight: np.ndarray, rho: DensityMatrix) -> list:
    """``sum_k weight[k] Tr(a[r, k]* a[r, k] rho).real`` for each r, added in index order."""
    norms = np.trace(dagger(a) @ a @ rho.mat, axis1=-2, axis2=-1).real
    return [sum(row, 0.0) for row in (weight * norms).reshape(len(a), -1).tolist()]


def _purification_grid(rho: DensityMatrix) -> np.ndarray:
    """Grid of the standard purification ``(1 (x) sqrt(rho)) |Omega>``."""
    g = matcore.psd_function(rho.eigen, np.sqrt).T
    return g / np.linalg.norm(g)


def build_states(rep: ApproxRep, grids: tuple | None = None) -> UhlmannInstance:
    """Encode the representation into a bipartite pair.

    B-side layout is B1 (x) B2 (x) B3 with B1 slowest:
    ``C`` superposes ``sqrt(mu(g)/|G|) (1 (x) U_g)|psi> |g> |h>`` and
    ``D`` carries ``U_hg`` instead.  Both A-side reductions equal the
    purifying marginal, so the pair has fidelity 1.  ``grids``, the (C, D)
    grids of a pair or the (rows, d, d|G|^2) stacks of a stacked pass, stands
    in for the encoding; stacks give a stacked instance.
    """
    mc, md = grids if grids is not None else (g[0] for g in _encode(rep, rep.unitaries[None]))
    inst = UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))
    if matcore.op_norm_exceeds(inst.rho.mat - inst.sigma.mat, 1e-9):
        raise ConsistencyError("A-side reductions of C and D should coincide")
    return inst


def _encode(rep: ApproxRep, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, d, d|G|^2) C and D grids of each (|G|, d, d) stack of ``us`` under rep's mu and rho."""
    n, d = rep.group.order, rep.dim
    psi = _purification_grid(rep.rho)
    weight = np.sqrt(rep.mu / n)[:, None, None, None]
    blocks_c = np.broadcast_to(psi @ us[:, :, None].mT, (len(us), n, n, d, d))
    blocks_d = psi @ us[:, rep.group.mult.T].mT
    # blocks are indexed [row, g, h]; a zero weight leaves its blocks at +0.0
    return tuple(_grid(np.where(weight > 0, weight * b, 0)) for b in (blocks_c, blocks_d))


def _grid(blocks: np.ndarray) -> np.ndarray:
    """Blocks ``[row, g, h, a, b1]`` laid out as coefficient grids ``[row, a, (b1, g, h)]``, B1 slowest."""
    return blocks.transpose(0, 3, 4, 1, 2).reshape(len(blocks), blocks.shape[3], -1)


def _w_blocks(us: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The blocks ``[..., g, h] = U_hg U_g*`` of W~, for unitaries ``us[..., g, :, :]``."""
    return us[..., mult.T, :, :] @ dagger(us[..., :, None, :, :])


def intertwiner(rep: ApproxRep):
    """Exact permutation representation and the averaging isometry.

    Returns ``(rep_mats, v)`` with ``rep_mats[g] = sum_h |h><hg|`` acting
    on B3 and ``v = |G|^-1/2 sum_h U_h (x) |h>`` mapping B1 into B1 (x) B3.
    ``v* (1 (x) rep_mats[g]) v`` is the self-convolution
    ``|G|^-1 sum_h U_h* U_hg``.
    """
    n, d = rep.group.order, rep.dim
    rep_mats = np.eye(n, dtype=complex)[rep.group.mult.T]
    v = (rep.unitaries / np.sqrt(n)).transpose(1, 0, 2).reshape(d * n, d)
    return rep_mats, v


def convolution(rep: ApproxRep, g) -> np.ndarray:
    """``|G|^-1 sum_h U_h* U_hg``, the conjugated representation element (stacked when ``g`` is an index array)."""
    return _convolutions(rep.unitaries[None], rep.group.mult)[0, g]


def _convolutions(us: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``convolution`` at every g, ``[row, g]``, of each (|G|, d, d) stack ``us``; C order adds h in index order."""
    return np.ascontiguousarray(dagger(us)[:, None] @ us[:, mult.T]).sum(axis=2) / len(mult)


class StabilityResult(Record):
    """Defect, rigidity residual, and representation distance of one rep."""

    defect_epsilon: float
    stability_distance: float
    uhlmann_residual: float
    eta: float
    kappa: float


def stability_check(rep: ApproxRep, row: _Row | None = None) -> StabilityResult:
    """Measure the stability chain on one approximate representation.

    Computes the defect, the rigidity residual ``||(1 (x) (U - W~))|C>||^2``,
    and the stability distance ``E_g ||U_g - V* R(g) V||_rho^2``; verifies
    the built instance has eta = kappa = 1 and that the stability theorem
    ``distance <= defect`` holds.  (The residual itself equals the defect;
    the distance is smaller by exactly ``1 - E_{g~mu} Tr(M_g* M_g rho)`` with
    ``M_g = V* R(g) V``, which is >= 0 because ``||M_g|| <= 1``.)  ``row`` is
    rep's row of a stacked pass (``_rows``): a pure cache of the stack work,
    which never changes the result.  When omitted it is a pass of one.
    """
    row = row or _rows([rep])[0]
    if isinstance(row.spectral, Exception):
        raise row.spectral
    eta, kappa, misses = row.spectral
    if abs(eta - 1.0) > 1e-8 or abs(kappa - 1.0) > 1e-8:
        raise ConsistencyError(f"expected eta = kappa = 1, got ({eta}, {kappa})")
    if row.distance > row.defect + 1e-6:
        raise ConsistencyError(f"stability distance {row.distance} exceeds defect {row.defect}")
    if misses:
        raise ConsistencyError("W~ does not map C to D")
    return StabilityResult(row.defect, row.distance, row.residual, eta, kappa)


class _Row(Record):  # a representation's share of a stacked pass: stability_check only compares
    spectral: tuple | Exception  # (eta, kappa, ||C W~ᵀ - D|| > 1e-9), or what its pass of one raised there
    residual: float
    defect: float
    distance: float


def _spectral(rep: ApproxRep, grids: tuple, c_w: np.ndarray) -> list:
    """``(eta, kappa, ||C W~ᵀ - D|| > 1e-9)`` of each row of the instance ``build_states`` makes of ``grids``
    (a stack, or one pair) and of its grids ``c_w`` of C times W~ᵀ."""
    inst = build_states(rep, grids)
    eta, kappa = uhlmann.spectral_gap_eta(inst), uhlmann.obliqueness_kappa(inst)
    return list(zip(np.atleast_1d(eta).tolist(), np.atleast_1d(kappa).tolist(),
                    matcore.exceeding(c_w - inst.d.coeffs, 1e-9)))


def _spectral_alone(rep: ApproxRep, grids: tuple, c_w: np.ndarray) -> tuple | Exception:
    """``_spectral`` of one pair, or the error it raised."""
    try:
        return _spectral(rep, grids, c_w)[0]
    except UhlmannError as exc:
        return exc


def _rows(reps: list) -> list:
    """``stability_check``'s stack work for representations sharing one group, dim, mu and rho, on
    (rows, |G|, |G|, d, d) stacks, eta and kappa on one stacked instance; every row keeps the bits of its
    pass of one.  If the rows' rank cuts differ, or the stacked instance raises, each row is taken alone,
    and a failing row keeps its error for ``stability_check`` to raise."""
    rep, us = reps[0], np.stack([r.unitaries for r in reps])
    n, d, mult = rep.group.order, rep.dim, rep.group.mult
    mc, md = _encode(rep, us)
    cb = mc.reshape(-1, d, d, n, n).transpose(0, 3, 4, 1, 2)  # C's grids as blocks [row, g, h, a, b1]
    wt = _w_blocks(us, mult)
    # no (d|G|^2)^2 operator; laid out as the dense C (U - W~)ᵀ, so each norm sums in its order
    x = _grid(cb @ (us[:, None] - wt).mT).reshape(len(us), -1)
    squares = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)  # np.linalg.norm's, per row
    conj = _convolutions(us, mult)
    c_w = _grid(cb @ wt.mT)
    try:
        spectral = _spectral(rep, (mc, md), c_w)
    except UhlmannError:
        spectral = [_spectral_alone(rep, grids, cw) for *grids, cw in zip(mc, md, c_w)]
    rows = zip(spectral, squares.tolist(), _defects(rep, us), _rho_weighted_sums(us - conj, rep.mu, rep.rho))
    return [_Row(sp, float(np.sqrt(sq) ** 2), e, s) for sp, sq, e, s in rows]


def _sweep(group: FiniteGroup, dim: int, scale: float, seed: int, count: int):
    """``(rep, row)`` for rows 0..count-1 of a ``grouprep`` sweep at the default rho and mu, in passes of
    ``max(1, _CHUNK_ENTRIES // (|G|^2 d^2))`` rows; row k draws from ``default_rng((seed, k))`` alone."""
    size = max(1, uhlmann._CHUNK_ENTRIES // (group.order * dim) ** 2)
    for start in range(0, count, size):
        rngs = [np.random.default_rng((seed, k)) for k in range(start, min(start + size, count))]
        reps = _perturbed_reps(group, dim, scale, rngs, reps[0].rho if start else None)  # one default rho
        yield from zip(reps, _rows(reps))
