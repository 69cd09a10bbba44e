"""High-precision reference values of F, eta and kappa for one state pair.

Usage::

    PYTHONPATH=src python tools/oracle_values.py [--d 32] [--seed 7] [--dps 40] [--random-ranks]

The pair is ``random_instance(d, default_rng(seed), rank_c=d, rank_d=d)``,
the full-rank family of the regression test in ``tests/test_core.py``, or
with ``--random-ranks`` ``random_instance(d, default_rng(seed))``.  Its
float64 coefficient grids are taken as exact and everything after them runs
in mpmath at ``--dps`` digits, from the definitions alone:
``rho = M_C M_C* / Tr``, ``sigma`` likewise, ``h = rho^1/2 sigma rho^1/2``,
``F = Tr h^1/2``, ``eta`` the smallest nonzero eigenvalue of
``rho^-1 # sigma = rho^-1/2 h^1/2 rho^-1/2`` and
``kappa = ||rho^-1/2 P rho^1/2||^2`` with P the projector onto Image(h).
Eigenvalues count as nonzero above ``10^(-dps/2)`` of the largest.  At
d = 32 and 40 digits the run takes about ten seconds.
"""

from __future__ import annotations

import argparse

import mpmath
import numpy as np

from uhlmann.uhlmann import random_instance


def _mp(a: np.ndarray) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])


def _eigen(a: mpmath.matrix) -> tuple:
    """Eigenvalues and eigenvectors of the Hermitian part of ``a``."""
    return mpmath.eighe((a + a.H) / 2)


def _function(eigen: tuple, fn, cut) -> mpmath.matrix:
    """``Q fn(e) Q*`` over the eigenvalues ``e`` above ``cut`` times the largest; the rest map to 0."""
    e, q = eigen
    top = max(abs(x) for x in e)
    return q * mpmath.diag([fn(x) if x > cut * top else 0 for x in e]) * q.H


def oracle(inst, dps: int) -> dict:
    """F, eta and kappa of an ``UhlmannInstance`` from its grids at ``dps`` digits."""
    mpmath.mp.dps = dps
    cut = mpmath.mpf(10) ** (-dps // 2)
    mc, md = _mp(inst.c.coeffs), _mp(inst.d.coeffs)
    rho, sigma = (m * m.H / sum(abs(z) ** 2 for z in m) for m in (mc, md))
    rho_eigen = _eigen(rho)
    sr = _function(rho_eigen, mpmath.sqrt, cut)
    isr = _function(rho_eigen, lambda x: 1 / mpmath.sqrt(x), cut)
    h_eigen = _eigen(sr * sigma * sr)
    h_sqrt = _function(h_eigen, mpmath.sqrt, cut)
    p = _function(h_eigen, lambda x: 1, cut)
    fidelity = sum(h_sqrt[i, i] for i in range(h_sqrt.rows)).real
    e_mean, _ = _eigen(isr * h_sqrt * isr)
    eta = min(x for x in e_mean if x > cut * max(e_mean))
    kappa = max(mpmath.svd_c(isr * p * sr, compute_uv=False)) ** 2
    return {"fidelity": fidelity, "eta": eta, "kappa": kappa}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dps", type=int, default=40)
    ap.add_argument("--random-ranks", action="store_true")
    args = ap.parse_args()
    rank = None if args.random_ranks else args.d
    inst = random_instance(args.d, np.random.default_rng(args.seed), rank_c=rank, rank_d=rank)
    for name, value in oracle(inst, args.dps).items():
        print(f"{name} {mpmath.nstr(value, 20)}")


if __name__ == "__main__":
    main()
