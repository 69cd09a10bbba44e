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

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import matcore, uhlmann
from .errors import BadParamsError, ConsistencyError, DimensionMismatchError, NotUnitaryError
from .matcore import dagger
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
    "w_tilde",
]


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as an explicit multiplication table on indices.

    ``mult[a, b]`` is the index of the product ab.  Associativity,
    identity, and inverses are verified exhaustively at construction.
    """

    order: int
    mult: np.ndarray
    inverse: np.ndarray
    labels: tuple
    identity: int

    @classmethod
    def from_table(cls, table, labels=None) -> "FiniteGroup":
        mult = np.asarray(table, dtype=int)
        n = mult.shape[0]
        if mult.shape != (n, n) or n < 1:
            raise BadParamsError("multiplication table must be square and nonempty")
        if mult.min() < 0 or mult.max() >= n:
            raise BadParamsError("table entries must be element indices")
        identity = None
        for e in range(n):
            if all(mult[e, g] == g and mult[g, e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise BadParamsError("no identity element")
        inverse = np.full(n, -1, dtype=int)
        for g in range(n):
            for h in range(n):
                if mult[g, h] == identity and mult[h, g] == identity:
                    inverse[g] = h
                    break
            if inverse[g] < 0:
                raise BadParamsError(f"element {g} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if mult[mult[a, b], c] != mult[a, mult[b, c]]:
                        raise BadParamsError(f"associativity fails at ({a},{b},{c})")
        labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise BadParamsError("labels length must match the order")
        return cls(order=n, mult=mult, inverse=inverse, labels=labels, identity=identity)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if not 1 <= n <= 8:
            raise BadParamsError("cyclic groups are provided for 1 <= n <= 8")
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls.from_table(table, labels=[f"g{a}" for a in range(n)])

    @classmethod
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
        if int(obj["order"]) != len(obj["table"]):
            raise BadParamsError("order field disagrees with table size")
        return cls.from_table(obj["table"], labels=obj.get("labels"))


@dataclass(frozen=True)
class ApproxRep:
    """Candidate representation: unitaries, sampling measure, test state."""

    group: FiniteGroup
    unitaries: tuple
    mu: np.ndarray
    rho: DensityMatrix

    @classmethod
    def create(cls, group, unitaries, rho, mu=None) -> "ApproxRep":
        us = tuple(matcore.as_matrix(u) for u in unitaries)
        if len(us) != group.order:
            raise DimensionMismatchError("need one unitary per group element")
        d = us[0].shape[0]
        for u in us:
            if u.shape != (d, d):
                raise DimensionMismatchError("unitaries must share one dimension")
            if matcore.op_norm_exceeds(dagger(u) @ u - np.eye(d), 1e-9):
                raise NotUnitaryError("representation element is not unitary within 1e-9")
        mu = np.full(group.order, 1.0 / group.order) if mu is None else np.asarray(mu, float)
        if mu.shape != (group.order,) or mu.min() < 0 or abs(mu.sum() - 1.0) > 1e-10:
            raise BadParamsError("mu must be a probability vector over the group")
        if rho.dim != d:
            raise DimensionMismatchError("rho must act on the representation space")
        return cls(group=group, unitaries=us, mu=mu, rho=rho)

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]


def exact_representation(group: FiniteGroup, dim: int) -> list:
    """An exact unitary representation of ``group`` on ``dim`` dimensions.

    Cyclic groups get diagonal character powers (any dim); any group gets
    its left-regular permutation representation at dim = order; S3 also
    gets its natural 3-dimensional permutation action.
    """
    n = group.order
    if dim == n:  # column h of the matrix of g is |gh>
        return [np.eye(n, dtype=complex)[:, group.mult[g]] for g in range(n)]
    gen = _cyclic_generator(group)
    if gen is not None:
        omega_n = np.exp(2j * np.pi / n)
        powers = _element_powers(group, gen)
        return [
            np.diag([omega_n ** (powers[g] * (j % n)) for j in range(dim)]).astype(complex)
            for g in range(n)
        ]
    if n == 6 and dim == 3:  # the non-cyclic group of order 6 is S3; column i is |p(i)>
        return [np.eye(3, dtype=complex)[:, list(p)] for p in itertools.permutations(range(3))]
    raise BadParamsError(f"no built-in exact representation of this group at dim={dim}")


def _cyclic_generator(group: FiniteGroup) -> int | None:
    """An element generating the whole group, or None when the group is not cyclic."""
    for g in range(group.order):
        if len(_element_powers(group, g)) == group.order:
            return g
    return None


def _element_powers(group: FiniteGroup, g: int) -> dict:
    """Map element -> exponent along the cyclic subgroup generated by g."""
    powers = {group.identity: 0}
    cur, k = g, 1
    while cur not in powers:
        powers[cur] = k
        cur = group.mult[cur, g]
        k += 1
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
    tunable through ``scale`` with a known exact reference.
    """
    base = exact_representation(group, dim)
    us = []
    for mat in base:
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + dagger(h)) / 2
        h /= max(matcore.op_norm(h), 1e-30)
        eig = matcore.hermitian_eigen(h)
        rot = (eig.vectors * np.exp(1j * scale * eig.values)) @ dagger(eig.vectors)
        us.append(mat @ rot)
    if rho is None:
        rho = DensityMatrix(np.eye(dim, dtype=complex) / dim)
    return ApproxRep.create(group, us, rho, mu=mu)


def rep_defect(rep: ApproxRep) -> float:
    """Multiplication defect ``E_{g~mu, h~G} ||U_h U_g - U_hg||_rho^2``.

    Exact double sum; ``||A||_rho = sqrt(Tr(A* A rho))``.
    """
    g_count = rep.group.order
    total = 0.0
    for g in range(g_count):
        if rep.mu[g] == 0.0:
            continue
        for h in range(g_count):
            a = rep.unitaries[h] @ rep.unitaries[g] - rep.unitaries[rep.group.mult[h, g]]
            total += rep.mu[g] / g_count * np.trace(dagger(a) @ a @ rep.rho.mat).real
    return float(total)


def _purification_grid(rho: DensityMatrix) -> np.ndarray:
    """Grid of the standard purification ``(1 (x) sqrt(rho)) |Omega>``."""
    g = matcore.psd_function(rho.eigen, np.sqrt).T
    return g / np.linalg.norm(g)


def build_states(rep: ApproxRep) -> UhlmannInstance:
    """Encode the representation into a bipartite pair.

    B-side layout is B1 (x) B2 (x) B3 with B1 slowest:
    ``C`` superposes ``sqrt(mu(g)/|G|) (1 (x) U_g)|psi> |g> |h>`` and
    ``D`` carries ``U_hg`` instead.  Both A-side reductions equal the
    purifying marginal, so the pair has fidelity 1.
    """
    g_count = rep.group.order
    d = rep.dim
    psi = _purification_grid(rep.rho)
    arr_c = np.zeros((d, d, g_count, g_count), dtype=complex)
    arr_d = np.zeros((d, d, g_count, g_count), dtype=complex)
    for g in range(g_count):
        weight = np.sqrt(rep.mu[g] / g_count)
        if weight == 0.0:
            continue
        moved_c = psi @ rep.unitaries[g].T
        for h in range(g_count):
            arr_c[:, :, g, h] = weight * moved_c
            arr_d[:, :, g, h] = weight * (psi @ rep.unitaries[rep.group.mult[h, g]].T)
    dim_b = d * g_count * g_count
    mc = arr_c.reshape(d, dim_b)
    md = arr_d.reshape(d, dim_b)
    inst = UhlmannInstance.from_states(BipartitePureState(mc), BipartitePureState(md))
    if matcore.op_norm_exceeds(inst.rho.mat - inst.sigma.mat, 1e-9):
        raise ConsistencyError("A-side reductions of C and D should coincide")
    return inst


def _block_diagonal(blocks: list) -> np.ndarray:
    """``sum_k blocks[k] (x) |k><k|`` on B1 (x) (B2 (x) B3), B1 slowest, by one scatter."""
    n, d = len(blocks), blocks[0].shape[0]
    out = np.zeros((d, n, d, n), dtype=complex)
    out[:, np.arange(n), :, np.arange(n)] = blocks
    return out.reshape(d * n, d * n)


def w_tilde(rep: ApproxRep) -> np.ndarray:
    """Optimal B-side map ``sum_{g,h} (U_hg U_g*) (x) |g,h><g,h|``."""
    us, mult = rep.unitaries, rep.group.mult
    pairs = itertools.product(range(rep.group.order), repeat=2)
    return _block_diagonal([us[mult[h, g]] @ dagger(us[g]) for g, h in pairs])


def _u_operator(rep: ApproxRep) -> np.ndarray:
    """The candidate transformation ``sum_h U_h (x) 1_B2 (x) |h><h|``."""
    return _block_diagonal(list(rep.unitaries) * rep.group.order)


def intertwiner(rep: ApproxRep):
    """Exact permutation representation and the averaging isometry.

    Returns ``(rep_mats, v)`` with ``rep_mats[g] = sum_h |h><hg|`` acting
    on B3 and ``v = |G|^-1/2 sum_h U_h (x) |h>`` mapping B1 into B1 (x) B3.
    ``v* (1 (x) rep_mats[g]) v`` is the self-convolution
    ``|G|^-1 sum_h U_h* U_hg``.
    """
    g_count = rep.group.order
    d = rep.dim
    rep_mats = []
    for g in range(g_count):
        r = np.zeros((g_count, g_count), dtype=complex)
        for h in range(g_count):
            r[h, rep.group.mult[h, g]] = 1.0
        rep_mats.append(r)
    v = np.zeros((d * g_count, d), dtype=complex)
    for h in range(g_count):
        v[h::g_count, :] = rep.unitaries[h] / np.sqrt(g_count)
    return rep_mats, v


def convolution(rep: ApproxRep, g: int) -> np.ndarray:
    """``|G|^-1 sum_h U_h* U_hg``, the conjugated representation element."""
    g_count = rep.group.order
    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for h in range(g_count):
        acc += dagger(rep.unitaries[h]) @ rep.unitaries[rep.group.mult[h, g]]
    return acc / g_count


@dataclass(frozen=True)
class StabilityResult:
    """Defect, rigidity residual, and representation distance of one rep."""

    defect_epsilon: float
    stability_distance: float
    uhlmann_residual: float
    eta: float
    kappa: float


def stability_check(rep: ApproxRep) -> StabilityResult:
    """Measure the stability chain on one approximate representation.

    Computes the defect, the rigidity residual ``||(1 (x) (U - W~))|C>||^2``,
    and the stability distance ``E_g ||U_g - V* R(g) V||_rho^2``; verifies
    the built instance has eta = kappa = 1 and that the stability theorem
    ``distance <= defect`` holds.  (The residual itself equals the defect;
    the distance is smaller by exactly ``1 - E_{g~mu} Tr(M_g* M_g rho)`` with
    ``M_g = V* R(g) V``, which is >= 0 because ``||M_g|| <= 1``.)
    """
    inst = build_states(rep)
    wt = w_tilde(rep)
    u = _u_operator(rep)
    moved = inst.c.coeffs @ (u - wt).T
    residual = float(np.linalg.norm(moved) ** 2)
    defect = rep_defect(rep)
    dist = 0.0
    for g in range(rep.group.order):
        if rep.mu[g] == 0.0:
            continue
        a = rep.unitaries[g] - convolution(rep, g)
        dist += rep.mu[g] * np.trace(dagger(a) @ a @ rep.rho.mat).real
    eta = uhlmann.spectral_gap_eta(inst)
    kappa = uhlmann.obliqueness_kappa(inst)
    if abs(eta - 1.0) > 1e-8 or abs(kappa - 1.0) > 1e-8:
        raise ConsistencyError(f"expected eta = kappa = 1, got ({eta}, {kappa})")
    if dist > defect + 1e-6:
        raise ConsistencyError(f"stability distance {dist} exceeds defect {defect}")
    if matcore.op_norm_exceeds(inst.c.coeffs @ wt.T - inst.d.coeffs, 1e-9):
        raise ConsistencyError("W~ does not map C to D")
    return StabilityResult(
        defect_epsilon=defect,
        stability_distance=float(dist),
        uhlmann_residual=residual,
        eta=eta,
        kappa=kappa,
    )
