"""Canonical Uhlmann transformations, robust rigidity, and applications.

Submodules:

* ``matcore``     dense complex linear algebra, the cmjson format and all output text
* ``states``      bipartite pure states, partial traces, fidelity
* ``uhlmann``     canonical transformation W, eta/kappa, rigidity bounds
* ``certificate`` closed-form dual certificate and the primal probe
* ``adversarial`` parameter-dependence constructions and gap rounding
* ``protocol``    interactive synthesis protocol simulation
* ``grouprep``    stability of approximate group representations
* ``cli``         command-line entry point
"""

from . import adversarial, certificate, errors, grouprep, matcore, protocol, states
from . import uhlmann as core
from .errors import UhlmannError
from .states import BipartitePureState, DensityMatrix, fidelity, omega, overlap
from .uhlmann import (
    RigidityReport,
    UhlmannInstance,
    canonical_w,
    geometric_mean,
    obliqueness_kappa,
    random_instance,
    rigidity_report,
    rigidity_residual,
    spectral_gap_eta,
    unitary_completion,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitePureState",
    "DensityMatrix",
    "RigidityReport",
    "UhlmannError",
    "UhlmannInstance",
    "adversarial",
    "canonical_w",
    "certificate",
    "core",
    "errors",
    "fidelity",
    "geometric_mean",
    "grouprep",
    "matcore",
    "obliqueness_kappa",
    "omega",
    "overlap",
    "protocol",
    "random_instance",
    "rigidity_report",
    "rigidity_residual",
    "spectral_gap_eta",
    "states",
    "unitary_completion",
]
