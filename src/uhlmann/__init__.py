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

``errors``, ``matcore``, ``states`` and ``uhlmann`` load with the package.
``adversarial``, ``certificate``, ``grouprep`` and ``protocol`` load the
first time they are read (``uhlmann.protocol``, ``from uhlmann import
protocol``), through the module ``__getattr__`` of PEP 562, so a process
that never reads them never compiles them.
"""

import importlib

from . import errors, matcore, states
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


_ON_FIRST_USE = ("adversarial", "certificate", "grouprep", "protocol")


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return importlib.import_module(f"{__name__}.{name}")  # binds the attribute: one call per module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_ON_FIRST_USE})
