"""Robust rigidity of the canonical transformation, certified two ways.

Any unitary whose overlap is within eps of optimal moves the state (on
the support of W) by at most 2 kappa eps / eta.  The bound comes from an
explicit closed-form dual-feasible point rather than a numerical SDP
solve; the other direction is probed by a constrained search over
near-optimal unitaries, and weak duality keeps every probe below the
certificate value.
"""

import numpy as np

from uhlmann import random_instance, rigidity_report, rigidity_residual
from uhlmann.certificate import build_certificate, dual_bound, primal_probe
from uhlmann.uhlmann import near_optimal_unitary

rng = np.random.default_rng(2)
inst = random_instance(5, rng, rank_c=3, rank_d=4)
eps = 1e-3

rep = rigidity_report(inst, eps)
print("=== instance parameters ===")
print(f"fidelity      F     = {rep.fidelity:.6f}")
print(f"spectral gap  eta   = {rep.eta:.6f}")
print(f"obliqueness   kappa = {rep.kappa:.6f}")
print(f"rigidity bound 2 kappa eps / eta = {rep.delta_bound:.6e}")
print(f"weak-rigidity comparison 8(1 - F + sqrt(eps)) = {rep.weak_bound:.4f}")
print("(the certificate bound stays proportional to eps; the weak bound")
print(" saturates at 8(1-F) and goes blunt once F < 1)")

print()
print("=== the dual certificate ===")
kappa, eta = rep.kappa, rep.eta
cert = build_certificate(inst, eps, alpha=-kappa / eta)
print(f"alpha = -kappa/eta = {cert.alpha:.6f}")
print(f"objective value     = {cert.value:.10f}")
print(f"feasibility margin  = {cert.feasibility_margin:.2e} (>= -1e-8)")
print(f"implied bound 2(value + Tr(P rho)) = {dual_bound(inst, eps):.6e}")

print()
print("=== probing the primal side ===")
probe = primal_probe(inst, eps, trials=200, seed=7)
print(f"best residual over 200 near-optimal unitaries = {probe.best_residual:.6e}")
print(f"its overlap = {probe.best_overlap:.8f} >= F - eps = {rep.fidelity - eps:.8f}")
print(f"bound / best residual = {rep.delta_bound / probe.best_residual:.2f}")

print()
print("residuals of a few near-optimal unitaries against the bound:")
for k in range(5):
    r, ov = near_optimal_unitary(inst, eps, np.random.default_rng((2, k)))
    res = rigidity_residual(inst, r)
    print(f"  deficit = {rep.fidelity - ov:.2e}  residual = {res:.3e}  bound = {rep.delta_bound:.3e}")
